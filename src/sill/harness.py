"""Random generation of well-typed processes and the metatheory suites.

Terms are generated top-down from a sampled environment by randomized
inhabitation of the typing rules (dead ends retry, bounded by depth), so
every sample typechecks by construction, and the checker re-verifies it.
HCP samples are root-level mixes of translated CP samples, optionally
reduced a few steps and scrambled by random congruence axioms; this keeps
them inside the congruence closure of translation images, where
disentanglement recombines to a term congruent to the input.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace

from . import bridge, congruence, cp, hcp, reduction, surface
from . import names as nm
from . import types as ty
from .translate import cp_to_hcp
from .terms import SCHEMA
from .typecheck import Derivation, TypeCheckError, check_cp, check_hcp, hyper_eq, revalidate
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


class _CpGen:
    def __init__(self, rng: random.Random, cfg: GenConfig, namer):
        self.rng = rng
        self.cfg = cfg
        self.namer = namer

    def sample_env(self) -> dict:
        for _ in range(50):
            k = self.rng.choice([1, 2, 2, 3])
            env = {self.namer(): _sample_type(self.rng, self.cfg.max_type_size) for _ in range(k)}
            if _env_provable(env):
                return env
        return {self.namer(): ONE}

    def inhabit(self, env: dict, depth: int):
        """Randomized rule-directed inhabitation, pruned by the provability
        oracle so the search never backtracks more than locally.  Every
        generated subterm uses all of its environment freely: the empty offer
        fires only at a singleton environment, so no weakening ever hides a
        name from the checker's free-occurrence routing (and reducts stay
        checkable)."""
        if not _env_provable(env):
            return None
        if depth <= 0:
            return self._finish(env)
        rng = self.rng
        items = list(env.items())
        candidates: list[tuple[str, object]] = []
        if len(items) == 2 and items[1][1] == dual(items[0][1]):
            candidates.append(("ax", None))
        if len(items) == 1 and items[0][1] == ONE:
            candidates.append(("halt", None))
        if len(items) == 1 and items[0][1] == TOP:
            candidates.append(("absurd", items[0][0]))
        for n, a in items:
            match a:
                case ty.Bot() if len(items) >= 2:
                    candidates.append(("wait", n))
                case ty.Par():
                    candidates.append(("recv", n))
                case ty.With():
                    candidates.append(("case", n))
                case ty.Plus(l, r):
                    rest = tuple(v for k, v in items if k != n)
                    if provable(_canon(rest + (l,))):
                        candidates.append(("inl", n))
                    if provable(_canon(rest + (r,))):
                        candidates.append(("inr", n))
                case ty.Tensor():
                    candidates.append(("send", n))
        if len(items) < 7:
            candidates.append(("cut", None))
        if not candidates:
            return self._finish(env)
        weights = [DEFAULT_WEIGHTS[kind] for kind, _ in candidates]
        order = []
        pool = list(zip(candidates, weights))
        while pool:
            total = sum(w for _, w in pool)
            pick = rng.random() * total
            acc = 0.0
            for k, (cand, w) in enumerate(pool):
                acc += w
                if pick <= acc:
                    order.append(cand)
                    pool.pop(k)
                    break
        for kind, n in order:
            t = self._build(kind, n, env, depth)
            if t is not None:
                return t
        return self._finish(env)

    def _finish(self, env: dict):
        """Deterministic inhabitant of a provable environment, mirroring the
        oracle's witness search; used when the depth budget runs out."""
        items = sorted(env.items(), key=lambda kv: kv[0].uid)
        if len(items) == 1 and items[0][1] == ONE:
            return cp.Halt(items[0][0])
        if len(items) == 1 and items[0][1] == TOP:
            return cp.Absurd(items[0][0])
        if len(items) == 2 and items[1][1] == dual(items[0][1]):
            return cp.Link(items[0][0], items[1][0])
        for n, a in items:
            rest = {k: v for k, v in items if k != n}
            match a:
                case ty.Bot():
                    p = self._finish(rest)
                    return cp.Wait(n, p) if p is not None else None
                case ty.Par(l, r):
                    y = self.namer()
                    env2 = dict(rest)
                    env2[y] = l
                    env2[n] = r
                    p = self._finish(env2)
                    return cp.Recv(n, y, p) if p is not None else None
                case ty.With(l, r):
                    envl = dict(env)
                    envl[n] = l
                    envr = dict(env)
                    envr[n] = r
                    p = self._finish(envl)
                    q = self._finish(envr) if p is not None else None
                    return cp.Case(n, p, q) if q is not None else None
        for n, a in items:
            rest = {k: v for k, v in items if k != n}
            match a:
                case ty.Plus(l, r):
                    for side, cls in ((l, cp.Inl), (r, cp.Inr)):
                        if provable(_canon(tuple(rest.values()) + (side,))):
                            env2 = dict(env)
                            env2[n] = side
                            p = self._finish(env2)
                            if p is not None:
                                return cls(n, p)
                case ty.Tensor(l, r):
                    rl = list(rest.items())
                    if len(rl) > 14:
                        continue
                    for mask in range(1 << len(rl)):
                        envp = {k: v for i, (k, v) in enumerate(rl) if mask >> i & 1}
                        envq = {k: v for i, (k, v) in enumerate(rl) if not mask >> i & 1}
                        if not provable(_canon(tuple(envp.values()) + (l,))):
                            continue
                        if not provable(_canon(tuple(envq.values()) + (r,))):
                            continue
                        y = self.namer()
                        envp[y] = l
                        envq[n] = r
                        p = self._finish(envp)
                        q = self._finish(envq) if p is not None else None
                        if q is not None:
                            return cp.Send(n, y, p, q)
        return None

    def _build(self, kind: str, n, env: dict, depth: int):
        rng = self.rng
        items = list(env.items())
        if kind == "ax":
            return cp.Link(items[0][0], items[1][0])
        if kind == "halt":
            return cp.Halt(items[0][0])
        if kind == "absurd":
            return cp.Absurd(n)
        a = env.get(n)
        if kind == "wait":
            p = self.inhabit({k: v for k, v in items if k != n}, depth - 1)
            return cp.Wait(n, p) if p is not None else None
        if kind == "recv":
            y = self.namer()
            env2 = {k: v for k, v in items if k != n}
            env2[y] = a.left
            env2[n] = a.right
            p = self.inhabit(env2, depth - 1)
            return cp.Recv(n, y, p) if p is not None else None
        if kind == "case":
            envl = dict(env)
            envl[n] = a.left
            envr = dict(env)
            envr[n] = a.right
            p = self.inhabit(envl, depth - 1)
            q = self.inhabit(envr, depth - 1) if p is not None else None
            return cp.Case(n, p, q) if q is not None else None
        if kind in ("inl", "inr"):
            env2 = dict(env)
            env2[n] = a.left if kind == "inl" else a.right
            p = self.inhabit(env2, depth - 1)
            if p is None:
                return None
            return (cp.Inl if kind == "inl" else cp.Inr)(n, p)
        if kind == "send":
            rest = [(k, v) for k, v in items if k != n]
            for envp, envq in self._valid_splits(rest, a.left, a.right):
                y = self.namer()
                envp2 = dict(envp)
                envp2[y] = a.left
                envq2 = dict(envq)
                envq2[n] = a.right
                p = self.inhabit(envp2, depth - 1)
                q = self.inhabit(envq2, depth - 1) if p is not None else None
                if q is not None:
                    return cp.Send(n, y, p, q)
            return None
        if kind == "cut":
            for _ in range(4):
                b = _sample_type(rng, max(1, self.cfg.max_type_size - 2))
                for envp, envq in self._valid_splits(items, b, dual(b)):
                    z = self.namer()
                    envp2 = dict(envp)
                    envp2[z] = b
                    envq2 = dict(envq)
                    envq2[z] = dual(b)
                    p = self.inhabit(envp2, depth - 1)
                    q = self.inhabit(envq2, depth - 1) if p is not None else None
                    if q is not None:
                        return cp.Cut(z, b, p, q)
                    break  # one valid split attempt per sampled cut type
            return None
        return None

    def _valid_splits(self, rest: list, extra_p: ty.Type, extra_q: ty.Type):
        """Splits of rest where both halves stay provable with their extra
        obligation, in random order (bounded, to keep the search cheap)."""
        total = 1 << len(rest)
        if total <= 64:
            masks = list(range(total))
            self.rng.shuffle(masks)
        else:
            masks = [self.rng.randrange(total) for _ in range(64)]
        found = 0
        for mask in masks:
            envp = {k: v for i, (k, v) in enumerate(rest) if mask >> i & 1}
            envq = {k: v for i, (k, v) in enumerate(rest) if not mask >> i & 1}
            if provable(_canon(tuple(envp.values()) + (extra_p,))) and \
               provable(_canon(tuple(envq.values()) + (extra_q,))):
                yield envp, envq
                found += 1
                if found >= 3:
                    return


def _namer(prefix: str = "c"):
    counter = itertools.count()
    return lambda: nm.fresh(f"{prefix}{next(counter)}")


@functools.lru_cache(maxsize=65536)
def _gen_cp_cached(cfg: GenConfig, index: int):
    rng = _rng(cfg, "cp", index)
    with nm.supply_from(1_000_000_000 + index * 1_000_000):
        gen = _CpGen(rng, cfg, _namer())
        for _ in range(400):
            env = gen.sample_env()
            t = gen.inhabit(env, cfg.max_depth)
            if t is not None:
                return t, tuple(env.items()), check_cp(t, env)
    raise GeneratorStuck(f"no well-typed CP term found for sample {index}")


def _stream(cfg: GenConfig) -> GenConfig:
    """The cache key of cfg's samples: every field but `count`, which only
    says how many of them a suite draws."""
    return replace(cfg, count=0)


def gen_cp(cfg: GenConfig, index: int = 0):
    """One well-typed CP sample: (term, environment, derivation).

    Samples are pure functions of (config without its count, index); results
    are cached so different suites over the same stream share generation work.
    A cached sample leaves the name supply where generating it again would:
    `supply_from` resumes above max(saved, the sample's own uids), and those
    were already folded in when the sample was first made."""
    t, env, d = _gen_cp_cached(_stream(cfg), index)
    return t, dict(env), d


def scramble(t, rng: random.Random, steps: int):
    """Apply a random sequence of structural-congruence axioms.

    Each step lists the sites of every single-axiom rewrite (one walk, nothing
    rebuilt), draws one and rebuilds the term around that site alone."""
    for _ in range(steps):
        sites = congruence.sites(t, allow_unit_intro=False)
        if not sites:
            break
        # on Python 3.10-3.12 randrange(n) makes the one _randbelow(n) call that
        # choice() on a list of length n makes, so the random stream, and every
        # sample, is the one drawing from the full neighbour list gave
        t = congruence.rebuild_site(sites[rng.randrange(len(sites))])
    return t


@functools.lru_cache(maxsize=65536)
def _gen_hcp_cached(cfg: GenConfig, index: int):
    rng = _rng(cfg, "hcp", index)
    with nm.supply_from(2_000_000_000 + index * 1_000_000):
        namer = _namer()
        gen = _CpGen(rng, cfg, namer)
        k = rng.choice([1, 1, 2, 2, 3])
        parts = []
        env: dict = {}
        for _ in range(k):
            for _ in range(400):
                e = gen.sample_env()
                t = gen.inhabit(e, cfg.max_depth)
                if t is not None:
                    parts.append(cp_to_hcp(t))
                    env.update(e)
                    break
            else:
                raise GeneratorStuck(f"no well-typed HCP component found for sample {index}")
        term = congruence.rebuild_hcp([], parts)
        for _ in range(rng.randint(0, 2)):
            c = reduction.Configuration(term)
            rs = c.redexes()
            if not rs:
                break
            c.fire(rng.choice(rs))
            term = c.term()
        term = scramble(term, rng, rng.randint(0, 5))
        d, part = check_hcp(term, env)
    return term, tuple(env.items()), d


def gen_hcp(cfg: GenConfig, index: int = 0):
    """One well-typed HCP sample: (term, flat environment, derivation).

    Built as a root-level mix of translated CP samples, reduced a few steps
    and scrambled by congruence axioms, so samples include processes outside
    the direct image of the translation."""
    t, env, d = _gen_hcp_cached(_stream(cfg), index)
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


def _prop_preservation(t, env, d, index) -> str | None:
    for k, st in enumerate(reduction.reduce(t).steps, 1):
        try:
            part = _check(d.dialect, st.term, env).env
        except TypeCheckError as e:
            return f"step {k} ({st.redex.rule} on {st.redex.channel}) broke typing: {e.render()}"
        if d.dialect == "hcp" and not hyper_eq(part, d.env):
            return (f"step {k} changed the hyper-environment: "
                    f"{surface.print_hyper_env(part)} vs {surface.print_hyper_env(d.env)}")
    return None


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
    bound = sum(reduction.measure(t))
    trace = reduction.reduce(t, fuel=1 + bound)
    if trace.status != "canonical":
        return f"did not reach canonical form within the measure bound ({trace.status})"
    if len(trace.steps) > bound:
        return f"trace length {len(trace.steps)} exceeds the measure sum {bound}"
    prev = reduction.measure(t)
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
    image = cp_to_hcp(t)
    if hd.term != image:
        return "translated derivation does not conclude the image term"
    try:
        _, part = check_hcp(image, env)
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
# and reads the derivation without changing it: samples are cached and shared
# between suites.
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
        detail = prop(t, env, d, i)
        if detail is None:
            results.append(SampleResult(i, "pass"))
        else:
            t, detail = _shrink(t, env, d, i, prop, detail)
            results.append(SampleResult(i, "fail", detail, _fmt_sample(t, env)))
    return SuiteReport(name, cfg.seed, cfg.count, results)


# -- shrinking ----------------------------------------------------------------


def _replace_at(t, path):
    """Return a function rebuilding t with the subterm at path replaced."""
    if not path:
        return lambda new: new
    fields = SCHEMA[type(t)].subterms
    f = fields[path[0]]
    inner = _replace_at(getattr(t, f), path[1:])

    def rebuild(new):
        return replace(t, **{f: inner(new)})

    return rebuild


def _leaf_for(env_or_part, dialect: str):
    if dialect == "cp":
        env = env_or_part
        items = list(env.items())
        if len(items) == 2 and items[1][1] == dual(items[0][1]):
            return cp.Link(items[0][0], items[1][0])
        if len(items) == 1 and items[0][1] == ONE:
            return cp.Halt(items[0][0])
        for n, a in items:
            if a == TOP:
                return cp.Absurd(n)
        return None
    part = env_or_part
    if not part:
        return hcp.Inert()
    leaf = _leaf_for(part[0], "cp") if len(part) == 1 else None
    return None if leaf is None else cp_to_hcp(leaf)


def _shrink(t, env, d, index, prop, detail):
    """Greedily replace subderivations of d, t's derivation, by leaves while
    the failure persists: (the smallest failing term found, its failure)."""
    for _ in range(40):
        candidates: list[tuple[tuple, object]] = []

        def walk(node, path):
            leaf = _leaf_for(node.env, d.dialect)
            if leaf is not None and path and leaf != node.term:
                candidates.append((path, leaf))
            fields = SCHEMA[type(node.term)].subterms
            for k, c in enumerate(node.premises):
                if k < len(fields):
                    walk(c, path + (k,))

        walk(d, ())
        for path, leaf in candidates:
            t2 = _replace_at(t, path)(leaf)
            try:
                d2 = _check(d.dialect, t2, env)
            except TypeCheckError:
                continue
            detail2 = prop(t2, env, d2, index)
            if detail2 is not None:
                t, d, detail = t2, d2, detail2
                break
        else:
            break
    return t, detail
