"""Random generation of well-typed processes and the metatheory suites.

Terms are generated top-down from a sampled environment by randomized
inhabitation of the typing rules (dead ends retry, bounded by depth), so
every sample typechecks by construction, and the checker re-verifies it.
Each rule's premises are built in one place, `_CpGen._apply`, which both
search modes call: random inhabitation fills the premises by itself at one
less depth over a few random splits, and the deterministic finish at depth 0
fills them by itself over every provable split.  Provability is looked up
when an environment is sampled, not again for the premises below it, which
are provable by construction.  HCP samples are root-level mixes of
translated CP samples, optionally reduced a few steps, all fired on one
`reduction.Configuration`, and scrambled by random congruence axioms, each
step listing the sites unbuilt and building only the one it draws; this
keeps them inside the congruence closure of translation images, where
disentanglement recombines to a term congruent to the input.

A sample is a pure function of its stream (the config without its count) and
its index.  Each dialect keeps the samples of the one stream in use, so the
suites of one `fuzz` command share them, and drops them when another stream is
asked for, so memory does not grow with the number of commands a process runs.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace

from . import bridge, congruence, cp, hcp, reduction, surface, transport
from . import names as nm
from . import types as ty
from .translate import cp_to_hcp
from .terms import SCHEMA
from .typecheck import Derivation, TypeCheckError, check_cp, check_hcp, first_invalid, hyper_eq, revalidate
from .types import BOT, ONE, TOP, ZERO, dual


class GeneratorStuck(Exception):
    pass


DEFAULT_WEIGHTS = {
    "ax": 1.0,
    "halt": 1.0,
    "absurd": 0.6,
    "wait": 1.2,
    "recv": 1.2,
    "case": 0.9,
    "inl": 0.7,
    "inr": 0.7,
    "send": 1.2,
    "cut": 2.2,
}


@dataclass(frozen=True)
class GenConfig:
    seed: int
    count: int = 500
    max_type_size: int = 5
    max_depth: int = 5


def _rng(cfg: GenConfig, *parts) -> random.Random:
    return random.Random(":".join(["sill", str(cfg.seed)] + [str(p) for p in parts]))


def _sample_type(rng: random.Random, budget: int) -> ty.Type:
    if budget <= 1 or rng.random() < 0.45:
        r = rng.random()
        if r < 0.46:
            return ONE
        if r < 0.92:
            return BOT
        return TOP if r < 0.96 else ZERO
    cls = rng.choice([ty.Tensor, ty.Par, ty.Plus, ty.With])
    lb = rng.randint(1, max(1, budget - 2))
    return cls(_sample_type(rng, lb), _sample_type(rng, budget - 1 - lb))


def _canon(ts) -> tuple:
    return tuple(sorted(ts, key=ty.render))


@functools.lru_cache(maxsize=1 << 18)
def provable(ts: tuple) -> bool:
    """Whether the multiset of types is derivable in the cut-free,
    weakening-free fragment the generator targets (the empty offer fires only
    at a singleton environment).  Independent of the typecheckers: rule
    search with the invertible connectives decomposed eagerly, memoized on
    the type multiset."""
    n = len(ts)
    if n == 0:
        return False
    if n == 1 and ts[0] in (ONE, TOP):
        return True
    if n == 2 and ts[1] == dual(ts[0]):
        return True
    # invertible rules first: one decomposition suffices, no backtracking
    for i, a in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        match a:
            case ty.Bot():
                return bool(rest) and provable(_canon(rest))
            case ty.Par(l, r):
                return provable(_canon(rest + (l, r)))
            case ty.With(l, r):
                return provable(_canon(rest + (l,))) and provable(_canon(rest + (r,)))
    for i, a in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        match a:
            case ty.Plus(l, r):
                if provable(_canon(rest + (l,))) or provable(_canon(rest + (r,))):
                    return True
            case ty.Tensor(l, r):
                for mask in range(1 << len(rest)):
                    g1 = tuple(v for k, v in enumerate(rest) if mask >> k & 1)
                    g2 = tuple(v for k, v in enumerate(rest) if not mask >> k & 1)
                    if provable(_canon(g1 + (l,))) and provable(_canon(g2 + (r,))):
                        return True
    return False


def _env_provable(env: dict) -> bool:
    return provable(_canon(tuple(env.values())))


def _leaf(items: list):
    """The axiom that closes an environment by itself: Ax on a dual pair, 1 or
    ⊤ on a single channel, else None."""
    if len(items) == 2 and items[1][1] == dual(items[0][1]):
        return cp.Link(items[0][0], items[1][0])
    if len(items) == 1 and items[0][1] in (ONE, TOP):
        return (cp.Halt if items[0][1] == ONE else cp.Absurd)(items[0][0])
    return None


# the kind of inhabit's candidate for each leaf, which names its weight
_LEAF_KIND = {cp.Link: "ax", cp.Halt: "halt", cp.Absurd: "absurd"}
# rules with invertible premises: the deterministic search commits to the first
_INVERTIBLE = ("wait", "recv", "case")


def _rules(items: list) -> list:
    """(kind, channel) of every logical rule that can conclude the
    environment, in its order; a ⊕ side only if its premise stays provable."""
    out = []
    for n, a in items:
        match a:
            case ty.Bot() if len(items) >= 2:
                out.append(("wait", n))
            case ty.Par():
                out.append(("recv", n))
            case ty.With():
                out.append(("case", n))
            case ty.Plus(l, r):
                rest = tuple(v for k, v in items if k != n)
                if provable(_canon(rest + (l,))):
                    out.append(("inl", n))
                if provable(_canon(rest + (r,))):
                    out.append(("inr", n))
            case ty.Tensor():
                out.append(("send", n))
    return out


def _splits(rest: list, masks, extra_p: ty.Type, extra_q: ty.Type):
    """The splits of rest, one per mask (bit i puts rest[i] on the left), where
    both halves stay provable with their extra obligation.  Provability is
    tested on the halves' types; a split's environments are built only if it
    passes."""
    types = [v for _, v in rest]
    for mask in masks:
        if provable(_canon([v for i, v in enumerate(types) if mask >> i & 1] + [extra_p])) and \
           provable(_canon([v for i, v in enumerate(types) if not mask >> i & 1] + [extra_q])):
            yield ({k: v for i, (k, v) in enumerate(rest) if mask >> i & 1},
                   {k: v for i, (k, v) in enumerate(rest) if not mask >> i & 1})


def _all_splits(rest: list, extra_p: ty.Type, extra_q: ty.Type):
    """Every provable split, in mask order; none above 14 channels."""
    return () if len(rest) > 14 else _splits(rest, range(1 << len(rest)), extra_p, extra_q)


class _CpGen:
    def __init__(self, rng: random.Random, cfg: GenConfig, namer):
        self.rng = rng
        self.cfg = cfg
        self.namer = namer

    def sample_env(self) -> dict:
        """A random environment that is provable, as `inhabit` needs of its
        env: the first provable one of at most 50 drawn, else a lone 1.  Every
        premise `inhabit` passes down is provable by construction: a split's
        halves pass `_splits`' test, a ⊕ side is offered only if its premise
        is provable (`_rules`), and the premise of an invertible rule (⊥, ⅋,
        &) is provable whenever its conclusion is."""
        for _ in range(50):
            k = self.rng.choice([1, 2, 2, 3])
            env = {self.namer(): _sample_type(self.rng, self.cfg.max_type_size) for _ in range(k)}
            if _env_provable(env):
                return env
        return {self.namer(): ONE}

    def sample(self, what: str, index: int):
        """(term, environment): the first sampled environment of at most 400
        that inhabit fills."""
        for _ in range(400):
            env = self.sample_env()
            t = self.inhabit(env, self.cfg.max_depth)
            if t is not None:
                return t, env
        raise GeneratorStuck(f"no well-typed {what} found for sample {index}")

    def inhabit(self, env: dict, depth: int):
        """Randomized rule-directed inhabitation, pruned by the provability
        oracle so the search never backtracks more than locally.  Every
        generated subterm uses all of its environment freely: the empty offer
        fires only at a singleton environment, so no weakening ever hides a
        name from the checker's free-occurrence routing (and reducts stay
        checkable).  env must be provable (see `sample_env`)."""
        if depth <= 0:
            return self._finish(env)
        rng = self.rng
        items = list(env.items())
        leaf = _leaf(items)
        # a leaf candidate carries the leaf itself, a rule its channel
        candidates = [] if leaf is None else [(_LEAF_KIND[type(leaf)], leaf)]
        candidates += _rules(items)
        if len(items) < 7:
            candidates.append(("cut", None))
        weights = [DEFAULT_WEIGHTS[kind] for kind, _ in candidates]
        order = []  # the candidates drawn one by one without replacement, by weight
        while candidates:
            pick = rng.random() * sum(weights)
            acc = 0.0
            for k, w in enumerate(weights):
                acc += w
                if pick <= acc:
                    order.append(candidates.pop(k))
                    del weights[k]
                    break

        def sub(premise: dict):
            return self.inhabit(premise, depth - 1)

        for kind, arg in order:
            if kind in _LEAF_KIND.values():
                return arg
            t = self._cut(env, sub) if kind == "cut" else self._apply(kind, arg, env, sub, self._valid_splits)
            if t is not None:
                return t
        return self._finish(env)

    def _finish(self, env: dict):
        """Deterministic inhabitant of a provable environment, mirroring the
        oracle's witness search; used when the depth budget runs out.  The
        first invertible rule commits (its premises are provable whenever env
        is); the other rules are tried in channel order."""
        items = sorted(env.items(), key=lambda kv: kv[0].uid)  # ⊗ splits in this order too
        leaf = _leaf(items)
        if leaf is not None:
            return leaf
        env = dict(items)
        rules = []
        for kind, n in _rules(items):
            if kind in _INVERTIBLE:
                return self._apply(kind, n, env, self._finish, _all_splits)
            rules.append((kind, n))
        for kind, n in rules:
            t = self._apply(kind, n, env, self._finish, _all_splits)
            if t is not None:
                return t
        return None

    def _apply(self, kind: str, n, env: dict, sub, splits):
        """The CP rule `kind` concluding env on channel n: its premise
        environments, each inhabited by sub in order, under the rule's term
        (None as soon as some premise has no inhabitant).  ⊗ tries the splits
        of the other channels that splits(rest, A, B) offers, in order."""
        a = env[n]
        rest = dict(env)
        del rest[n]
        match kind:
            case "wait":
                p = sub(rest)
                return None if p is None else cp.Wait(n, p)
            case "recv":
                y = self.namer()
                p = sub(rest | {y: a.left, n: a.right})
                return None if p is None else cp.Recv(n, y, p)
            case "case":
                p = sub(env | {n: a.left})
                q = None if p is None else sub(env | {n: a.right})
                return None if q is None else cp.Case(n, p, q)
            case "inl" | "inr":
                left = kind == "inl"
                p = sub(env | {n: a.left if left else a.right})
                return None if p is None else (cp.Inl if left else cp.Inr)(n, p)
            case "send":
                for envp, envq in splits(list(rest.items()), a.left, a.right):
                    y = self.namer()
                    p = sub(envp | {y: a.left})
                    q = None if p is None else sub(envq | {n: a.right})
                    if q is not None:
                        return cp.Send(n, y, p, q)
        return None

    def _cut(self, env: dict, sub):
        """Cut on a sampled type, trying one provable split per type."""
        for _ in range(4):
            b = _sample_type(self.rng, max(1, self.cfg.max_type_size - 2))
            for envp, envq in self._valid_splits(list(env.items()), b, dual(b)):
                z = self.namer()
                p = sub(envp | {z: b})
                q = None if p is None else sub(envq | {z: dual(b)})
                if q is not None:
                    return cp.Cut(z, b, p, q)
                break  # one valid split attempt per sampled cut type
        return None

    def _valid_splits(self, rest: list, extra_p: ty.Type, extra_q: ty.Type):
        """At most 3 provable splits of rest, in random order (bounded, to
        keep the search cheap)."""
        total = 1 << len(rest)
        if total <= 64:
            masks = list(range(total))
            self.rng.shuffle(masks)
        else:
            masks = [self.rng.randrange(total) for _ in range(64)]
        return itertools.islice(_splits(rest, masks, extra_p, extra_q), 3)


def _namer(prefix: str = "c"):
    counter = itertools.count()
    return lambda: nm.fresh(f"{prefix}{next(counter)}")


def _stream(cfg: GenConfig) -> GenConfig:
    """The stream cfg's samples are drawn from: every field but `count`,
    which only says how many of them a suite draws."""
    return replace(cfg, count=0)


class _StreamSamples:
    """One dialect's samples of the stream in use, by index, made by
    `make(stream, index)` on first request.  Asking for another stream drops
    them: each fuzz command draws a fresh stream, so a sample of an earlier
    one is never read again, and keeping them all made the heap, and the
    cyclic GC's passes over it, grow with every command."""

    def __init__(self, make):
        self.make = make
        self.clear()

    def clear(self) -> None:
        self.stream, self.samples = None, {}

    def __call__(self, cfg: GenConfig, index: int):
        stream = _stream(cfg)
        if stream != self.stream:
            self.stream, self.samples = stream, {}
        sample = self.samples.get(index)
        if sample is None:
            sample = self.samples[index] = self.make(stream, index)
        return sample


def _make_cp(cfg: GenConfig, index: int):
    rng = _rng(cfg, "cp", index)
    with nm.supply_from(1_000_000_000 + index * 1_000_000):
        t, env = _CpGen(rng, cfg, _namer()).sample("CP term", index)
        return t, tuple(env.items()), check_cp(t, env)


_cp_samples = _StreamSamples(_make_cp)


def gen_cp(cfg: GenConfig, index: int = 0):
    """One well-typed CP sample: (term, environment, derivation).

    Samples are pure functions of (config without its count, index).  Those
    of the stream in use are kept, so suites over one stream share generation
    work (`fuzz --suite all`, criterion 1's four suites), and dropped when
    another stream is asked for.  Neither a kept sample nor one made again
    after it was dropped moves the name supply: `supply_from` resumes above
    max(saved, the sample's own uids), the sample's uids are the same each
    time it is made, and they were folded into the supply the first time."""
    t, env, d = _cp_samples(cfg, index)
    return t, dict(env), d


def scramble(t, rng: random.Random, steps: int):
    """Apply a random sequence of structural-congruence axioms.

    Each step lists the sites of every single-axiom rewrite (one walk,
    nothing built), draws one, builds its rewrite alone and rebuilds the term
    around it on the site's path only.  A rebuilt term shares every node off
    the path with the term before, and with it the free-name sets those nodes
    keep."""
    for _ in range(steps):
        sites = congruence.sites(t, allow_unit_intro=False)
        if not sites:
            break
        # on Python 3.10-3.12 randrange(n) makes the one _randbelow(n) call that
        # choice() on a list of length n makes, so the random stream, and every
        # sample, is the one drawing from the full neighbour list gave
        path, label, build = sites[rng.randrange(len(sites))]
        t = congruence.rebuild_site((path, label, build()))
    return t


def _make_hcp(cfg: GenConfig, index: int):
    rng = _rng(cfg, "hcp", index)
    with nm.supply_from(2_000_000_000 + index * 1_000_000):
        gen = _CpGen(rng, cfg, _namer())
        parts = []
        env: dict = {}
        for _ in range(rng.choice([1, 1, 2, 2, 3])):
            t, e = gen.sample("HCP component", index)
            parts.append(cp_to_hcp(t))
            env.update(e)
        term = congruence.rebuild_hcp([], parts)
        # one configuration fires every step; the term is rebuilt from it only
        # if a step fired, as rebuilding reorders the mix
        c, fired = None, False
        for _ in range(rng.randint(0, 2)):
            if c is None:
                c = reduction.Configuration(term)
            rs = c.redexes()
            if not rs:
                break
            c.fire(rng.choice(rs))
            fired = True
        if fired:
            term = c.term()
        term = scramble(term, rng, rng.randint(0, 5))
        d, part = check_hcp(term, env)
    return term, tuple(env.items()), d


_hcp_samples = _StreamSamples(_make_hcp)


def gen_hcp(cfg: GenConfig, index: int = 0):
    """One well-typed HCP sample: (term, flat environment, derivation).

    Built as a root-level mix of translated CP samples, reduced a few steps
    and scrambled by congruence axioms, so samples include processes outside
    the direct image of the translation.  Kept and dropped as `gen_cp`'s are."""
    t, env, d = _hcp_samples(cfg, index)
    return t, dict(env), d


# -- property suites ----------------------------------------------------------


@dataclass
class SampleResult:
    index: int
    status: str  # 'pass' | 'fail'
    detail: str = ""
    counterexample: str | None = None


@dataclass
class SuiteReport:
    suite: str
    seed: int
    count: int
    results: list

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.status != "pass"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def text(self) -> str:
        lines = [f"suite {self.suite}: seed {self.seed}, {self.count} samples"]
        for r in self.failures:
            lines.append(f"  sample {r.index}: FAIL: {r.detail}")
            if r.counterexample:
                lines.append(f"    counterexample: {r.counterexample}")
        lines.append(f"suite {self.suite}: {self.count - len(self.failures)}/{self.count} passed")
        return "\n".join(lines)

    def json_lines(self) -> list[dict]:
        out = []
        for r in self.results:
            rec = {"suite": self.suite, "seed": self.seed, "index": r.index, "status": r.status}
            if r.status != "pass":
                rec["detail"] = r.detail
                rec["counterexample"] = r.counterexample
            out.append(rec)
        out.append({"suite": self.suite, "seed": self.seed, "passed": self.count - len(self.failures),
                    "count": self.count})
        return out


def _fmt_sample(t, env) -> str:
    return f"{surface.print_term(t)}  [{surface.print_env(env)}]"


def _check(dialect: str, t, env) -> Derivation:
    """t's derivation in env, by the checker of the dialect."""
    return check_cp(t, env) if dialect == "cp" else check_hcp(t, env)[0]


def _step_label(k: int, st) -> str:
    return f"step {k} ({st.redex.rule} on {st.redex.channel})"


def _changed(k: int, part, d) -> str:
    return (f"step {k} changed the hyper-environment: "
            f"{surface.print_hyper_env(part)} vs {surface.print_hyper_env(d.env)}")


def _prop_preservation(t, env, d, index) -> str | None:
    """CP: every reduct typechecks.  HCP: every reduct's derivation,
    transported from the one before (`transport`), is valid where it is new
    and concludes the sample's hyper-environment; and the checker types the
    final reduct at it."""
    steps = reduction.reduce(t).steps
    if d.dialect == "cp":
        for k, st in enumerate(steps, 1):
            try:
                check_cp(st.term, env)
            except TypeCheckError as e:
                return f"{_step_label(k, st)} broke typing: {e.render()}"
        return None
    if not steps:
        return None
    if not revalidate(d):
        return "the sample's derivation fails local validation"
    k = 0
    try:
        for k, (st, d2, made) in enumerate(transport.derivations(d, steps), 1):
            bad = first_invalid(made)
            if bad is not None:
                return f"{_step_label(k, st)}: the transported {bad.rule} node fails local validation"
            if not hyper_eq(d2.env, d.env):
                return _changed(k, d2.env, d)
    except transport.TransportError as e:
        return f"{_step_label(k + 1, steps[k])} cannot be transported: {e}"
    try:
        _, part = check_hcp(st.term, env)
    except TypeCheckError as e:
        return f"{_step_label(k, st)} broke typing: {e.render()}"
    return None if hyper_eq(part, d.env) else _changed(k, part, d)


def _prop_progress(t, env, d, index) -> str | None:
    c = reduction.Configuration(t)
    if c.redexes():
        return None
    res = reduction.canonical(c)
    if not res.ok:
        return f"stuck: no redex and not canonical ({res.reason})"
    if not reduction.check_blocked(res):
        return "canonical but not blocked on external communication"
    return None


def _prop_termination(t, env, d, index) -> str | None:
    prev = reduction.measure(t)
    bound = sum(prev)
    trace = reduction.reduce(t, fuel=1 + bound)
    if trace.status != "canonical":
        return f"did not reach canonical form within the measure bound ({trace.status})"
    if len(trace.steps) > bound:
        return f"trace length {len(trace.steps)} exceeds the measure sum {bound}"
    for k, st in enumerate(trace.steps, 1):
        if not reduction.multiset_less(st.measure, prev):
            return f"measure did not strictly decrease at step {k}: {st.measure} vs {prev}"
        prev = st.measure
    return None


def _prop_equiv_preservation(t, env, d, index) -> str | None:
    rng = random.Random(f"equiv-{d.dialect}:{index}:{surface.print_term(t)}")
    t2 = scramble(t, rng, rng.randint(1, 4))
    if not congruence.equiv(t, t2):
        return f"scrambled term not congruent: {surface.print_term(t2)}"
    try:
        part = _check(d.dialect, t2, env).env
    except TypeCheckError as e:
        return f"congruent term failed to typecheck: {e.render()}"
    if d.dialect == "hcp" and not hyper_eq(part, d.env):
        return "congruent term typed at a different hyper-environment"
    return None


def _prop_translate_typing(t, env, d, index) -> str | None:
    hd = bridge.translate_typed(d)
    if not revalidate(hd):
        return "translated derivation fails local validation"
    if not hyper_eq(hd.env, [env]):
        return "translated derivation concludes a different environment"
    try:
        _, part = check_hcp(hd.term, env)
    except TypeCheckError as e:
        return f"image fails to typecheck: {e.render()}"
    if not hyper_eq(part, [env]):
        return f"image typed at {surface.print_hyper_env(part)}, expected a single sequent"
    return None


def _prop_simulate_forward(t, env, d, index) -> str | None:
    trace = reduction.reduce(t)
    if not bridge.simulate_forward(t, trace):
        return "a CP step has no matching HCP step modulo congruence"
    return None


def _prop_simulate_backward(t, env, d, index) -> str | None:
    image = cp_to_hcp(t)
    for r, reduct in itertools.islice(reduction.successors(image), 4):
        try:
            q = bridge.simulate_backward(t, reduct)
        except bridge.SimulationError as e:
            return f"HCP step {r.rule} on {r.channel} has no CP counterpart: {e}"
        if not congruence.equiv(reduct, cp_to_hcp(q)):
            return "reflection returned a non-matching CP step"
    return None


def _prop_disentangle(t, env, d, index) -> str | None:
    res = bridge.disentangle(d)
    for c in res.components:
        if not revalidate(c):
            return "an extracted component fails local validation"
        try:
            check_cp(c.term, c.env)
        except TypeCheckError as e:
            return f"an extracted component fails to typecheck: {e.render()}"
    if not hyper_eq([c.env for c in res.components], d.env):
        return "component environments do not match the hyper-environment"
    if not congruence.equiv(res.recombined, t):
        return f"recombined term not congruent to the input: {surface.print_term(res.recombined)}"
    return None


def _prop_internalize(t, env, d, index) -> str | None:
    out = bridge.tens_internalize(d)
    if not revalidate(out):
        return "internalized derivation fails local validation"
    want = bridge.bigtens(d.env)
    (z,) = out.env
    if out.env[z] != want:
        return f"internalized type is {ty.render(out.env[z])}, expected {ty.render(want)}"
    try:
        check_cp(out.term, out.env)
    except TypeCheckError as e:
        return f"internalized witness fails to typecheck: {e.render()}"
    return None


# suite name -> (the dialects its samples alternate over, its property).  A
# property receives the sample as generated, (term, env, derivation, index),
# and reads the derivation without changing it: the samples of the stream in
# use are kept and shared between the suites run over it.
_SUITES = {
    "preservation-cp": (("cp",), _prop_preservation),
    "preservation-hcp": (("hcp",), _prop_preservation),
    "progress": (("cp", "hcp"), _prop_progress),
    "termination": (("cp", "hcp"), _prop_termination),
    "equiv-preservation": (("cp", "hcp"), _prop_equiv_preservation),
    "translate-typing": (("cp",), _prop_translate_typing),
    "simulate-forward": (("cp",), _prop_simulate_forward),
    "simulate-backward": (("cp",), _prop_simulate_backward),
    "disentangle": (("hcp",), _prop_disentangle),
    "internalize": (("hcp",), _prop_internalize),
}

SUITE_NAMES = list(_SUITES)


def run_suite(name: str, cfg: GenConfig) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITE_NAMES)})")
    dialects, prop = _SUITES[name]
    results = []
    for i in range(cfg.count):
        gen = gen_cp if dialects[i % len(dialects)] == "cp" else gen_hcp
        try:
            t, env, d = gen(cfg, i)
        except (GeneratorStuck, TypeCheckError) as e:
            results.append(SampleResult(i, "fail", f"generator failure: {e}", None))
            continue
        detail = _verdict(prop, t, env, d, i)
        if detail is None:
            results.append(SampleResult(i, "pass"))
        else:
            t, detail = _shrink(t, env, d, i, prop, detail)
            results.append(SampleResult(i, "fail", detail, _fmt_sample(t, env)))
    return SuiteReport(name, cfg.seed, cfg.count, results)


def _verdict(prop, t, env, d, index) -> str | None:
    """prop's failure detail on a sample, or None if it holds; an exception
    the property raises is its failure, `<ExceptionName>: <message>`."""
    try:
        return prop(t, env, d, index)
    except Exception as e:  # any crash is a finding about the sample
        return f"{type(e).__name__}: {e}"


# -- shrinking ----------------------------------------------------------------


def _leaf_for(env_or_part, dialect: str):
    if dialect == "cp":
        items = list(env_or_part.items())
        leaf = _leaf(items)
        return leaf if leaf is not None else next((cp.Absurd(n) for n, a in items if a == TOP), None)
    part = env_or_part
    if not part:
        return hcp.Inert()
    leaf = _leaf_for(part[0], "cp") if len(part) == 1 else None
    return None if leaf is None else cp_to_hcp(leaf)


def _shrink_sites(d) -> list[tuple]:
    """The sites at which `_shrink` may replace a proper subderivation of d
    by a leaf: (path, label, leaf) as `congruence.sites` lists them, in
    pre-order."""
    candidates: list[tuple] = []
    stack = [(d, None)]
    while stack:
        node, path = stack.pop()
        leaf = _leaf_for(node.env, d.dialect)
        if leaf is not None and path is not None and leaf != node.term:
            candidates.append((path, "", leaf))
        fields = SCHEMA[type(node.term)].subterms
        stack += reversed([(c, (path, node.term, f)) for c, f in zip(node.premises, fields)])
    return candidates


def _shrink(t, env, d, index, prop, detail):
    """Greedily replace subderivations of d, t's derivation, by leaves while
    the failure persists: (the smallest failing term found, its failure)."""
    for _ in range(40):
        for site in _shrink_sites(d):
            t2 = congruence.rebuild_site(site)
            try:
                d2 = _check(d.dialect, t2, env)
            except TypeCheckError:
                continue
            detail2 = _verdict(prop, t2, env, d2, index)
            if detail2 is not None:
                t, d, detail = t2, d2, detail2
                break
        else:
            break
    return t, detail
