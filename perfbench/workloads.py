"""Seeded workload families for the sulmin benchmark.

Every workload turns a seed into a pool of ``.sul`` documents and the CLI job
to run on each.  The program under test only ever sees the written files.
Pools are built before any timing; the timed loop then runs the whole pool
over and over.  Both families are random, and the generator count drives the
cost of each, so a pool holds a fixed number of inputs per generator count,
forced by rejection over sub-seeds of the library's own generator.  Within a
generator count, certify-random samples its inputs by a cost proxy that
depends on the input only.  Each seed then gets the same size profile of its
family, which keeps a run's throughput steady from seed to seed without
filtering on any outcome of the program.

``HELDOUT_SEED`` was not used while the benchmark was tuned; a later claim of
a gain is to be confirmed on it as well as on the seeds it was developed on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

HELDOUT_SEED = 4242

# verify lines that only use f, g and dW: a legitimate fix of phi cannot
# break them, so they must read "pass" even when the known phi defect makes
# verify exit 3
VERIFY_INVARIANT_LINES = (
    "identity f g = id: pass",
    "identity f d = dW f: pass",
    "identity d g = g dW: pass",
    "identity dW dW = 0: pass",
    "identity f mu = mu (f x f): pass",
    "minimality: pass",
)


@dataclass
class Job:
    """One CLI invocation on one generated document."""

    command: str
    file: str
    text: str
    max_degree: int = 10

    def spec(self) -> Dict:
        return {"command": self.command, "file": self.file, "max_degree": self.max_degree}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], List[Job]]


# -- writing inputs -------------------------------------------------------------

def algebra_text(dga) -> str:
    from sulmin.dsl import format_element
    sig = dga.sig
    lines = [f"gen {g.name}:{g.degree}" for g in sig.generators]
    for i in sorted(dga.diff):
        lines.append(f"d {sig.name(i)} = {format_element(sig, dga.diff[i])}")
    return "\n".join(lines) + "\n"


def module_text(module) -> str:
    from sulmin.dsl import format_linear
    lines = ["mode module"] + [f"gen {name}:{deg}" for name, deg in module.generators]
    for i in sorted(module.diff):
        lines.append(f"d {module.name(i)} = {format_linear(module, module.diff[i])}")
    return "\n".join(lines) + "\n"


# -- pool sampling ---------------------------------------------------------------

def _sub_seeds(seed: int, tag: str):
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield rng.getrandbits(48)


def proxy_sample(candidates: List[Tuple[float, int, object]], size: int) -> List[object]:
    """Middle element of each of ``size`` equal blocks of the proxy-sorted candidates."""
    ordered = sorted(candidates, key=lambda c: (c[0], c[1]))
    step = len(ordered) / size
    return [ordered[int(k * step + step / 2)][2] for k in range(size)]


def stratified_pool(seed: int, tag: str, sizes, per_size: int, oversample: int,
                    candidate: Callable[[int, int], Optional[Tuple[int, object]]]) -> List[object]:
    """``per_size`` inputs with exactly n generators for each n in ``sizes``:
    the proxy sample of ``per_size * oversample`` draws that ``candidate``
    (sub-seed, n) accepts."""
    subs = _sub_seeds(seed, tag)
    pool = []
    for n in sizes:
        candidates = []
        while len(candidates) < per_size * oversample:
            found = candidate(next(subs), n)
            if found is not None:
                candidates.append((found[0], len(candidates), found[1]))
        pool += proxy_sample(candidates, per_size)
    return _shuffled(seed, tag, pool)


def _shuffled(seed: int, tag: str, items: List) -> List:
    items = list(items)
    random.Random(f"order:{tag}:{seed}").shuffle(items)
    return items


def monomial_counts(degrees, max_degree: int) -> List[int]:
    """Number of basis monomials in each degree through ``max_degree`` of the
    free graded-commutative algebra on generators of the given degrees."""
    counts = [1] + [0] * max_degree
    for d in degrees:
        if d % 2:
            for p in range(max_degree, d - 1, -1):
                counts[p] += counts[p - d]
        else:
            for p in range(d, max_degree + 1):
                counts[p] += counts[p - d]
    return counts


def peek_signature(sub: int, max_gens: int, gen_degree: int) -> List[int]:
    """Generator degrees ``random_sullivan_algebra`` draws on sub-seed ``sub``:
    the size comes first, then one degree per generator."""
    rng = random.Random(sub)
    return [rng.randint(1, gen_degree) for _ in range(rng.randint(4, max_gens))]


def sized_algebra(sub: int, n: int, max_gens: int, gen_degree: int, cap: int, max_basis: int):
    """``random_sullivan_algebra`` on sub-seed ``sub`` if it draws exactly ``n``
    generators and at most ``max_basis`` basis monomials through degree
    ``cap``, else None.  Both are read off the signature before generating."""
    from sulmin.random_inputs import random_sullivan_algebra
    degrees = peek_signature(sub, max_gens, gen_degree)
    if len(degrees) != n or sum(monomial_counts(degrees, cap)) > max_basis:
        return None
    dga = random_sullivan_algebra(random.Random(sub), max_gens=max_gens, max_degree=gen_degree)
    if [g.degree for g in dga.sig.generators] != degrees:
        raise RuntimeError("random_sullivan_algebra no longer draws its signature first")
    return dga


# -- certify-random ----------------------------------------------------------------

CERTIFY_SIZES = tuple(range(4, 13))   # max_gens=12 draws n uniformly from these
# 450 inputs: one pass takes about 60% of a 45 s run on a 2-vCPU host, so a
# run covers the whole pool with time to spare, and a seed fixes how many of
# its jobs fail
CERTIFY_PER_SIZE = 50
CERTIFY_OVERSAMPLE = 2
CERTIFY_CAP = 8
# Size bound of the family: basis monomials through the cap.  It keeps 92%
# of the draws; the rest reach seconds per job and would decide a run alone.
CERTIFY_MAX_BASIS = 600


def certify_candidate(sub: int, n: int):
    dga = sized_algebra(sub, n, 12, 4, CERTIFY_CAP, CERTIFY_MAX_BASIS)
    if dga is None:
        return None
    return sum(monomial_counts([g.degree for g in dga.sig.generators], CERTIFY_CAP)), dga


def build_certify(seed: int) -> List[Job]:
    pool = stratified_pool(seed, "certify", CERTIFY_SIZES, CERTIFY_PER_SIZE, CERTIFY_OVERSAMPLE,
                           certify_candidate)
    return [Job("verify", f"certify-{k:03d}.sul", algebra_text(dga), max_degree=CERTIFY_CAP)
            for k, dga in enumerate(pool)]


# -- contract-modules -----------------------------------------------------------------

# Generator counts of the family: one input for each.  random_dg_module
# (max_gens=600) draws the count uniformly from 2 to 600; the cost of
# generating and of contracting a module grows with its square, so the band
# keeps the weight of the inputs in a run within a factor of about 2.5, and
# holds enough inputs for a tail above the 90th percentile with ten inputs
# beyond it.
MODULE_SIZES = tuple(range(224, 352))
MODULE_MAX_GENS = 600


def module_candidate(sub: int, n: int):
    """``random_dg_module`` on sub-seed ``sub`` if its first draw, the
    generator count, is ``n``, else None."""
    from sulmin.random_inputs import random_dg_module
    if random.Random(sub).randint(2, MODULE_MAX_GENS) != n:
        return None
    module = random_dg_module(random.Random(sub), max_gens=MODULE_MAX_GENS)
    if len(module.generators) != n:
        raise RuntimeError("random_dg_module no longer draws its generator count first")
    return 0, module


def build_modules(seed: int) -> List[Job]:
    pool = stratified_pool(seed, "modules", MODULE_SIZES, 1, 1, module_candidate)
    return [Job("at-model", f"module-{k:03d}.sul", module_text(module))
            for k, module in enumerate(pool)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("certify-random",
             "verify on seeded random algebras: the checker and its evaluators, the oracle "
             "and the sweep; about half the jobs exit 3 on the known phi defect",
             build_certify),
    Workload("contract-modules",
             "at-model on random DG modules with 224 to 351 generators: the module "
             "contraction, measured by no other workload",
             build_modules),
)}


# -- correctness checks -------------------------------------------------------------------

def check_output(job: Dict, source_text: str, code: Optional[int], out: str) -> Optional[str]:
    """None when the output of ``job`` is correct, else the reason it is not.

    Every check is an invariant of the input, so a correct change to how the
    program builds phi or g cannot trip it.  A verify job that exits 3 with
    every invariant line passing is correct output; it still counts as a
    failed job.
    """
    command = job["command"]
    if code is None:
        return "no exit status"
    if command == "verify":
        return _check_verify(job, code, out)
    if code != 0:
        return f"exit {code}"
    if command == "at-model":
        return _check_at_model(source_text, out)
    return f"no check for command {command!r}"


def _check_verify(job: Dict, code: int, out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines or not lines[0].startswith("minimize: ok"):
        return "no minimize line"
    required = VERIFY_INVARIANT_LINES + (
        f"cohomology match (degree <= {job['max_degree']}): pass",)
    for want in required:
        if want not in lines:
            return f"missing {want!r}"
    if code == 0:
        failing = [ln for ln in lines if ln.startswith("identity ") and not ln.endswith(": pass")]
        return f"exit 0 with {failing[0]!r}" if failing else None
    if code == 3:
        return None
    return f"exit {code}"


def _check_at_model(source_text: str, out: str) -> Optional[str]:
    from sulmin.dsl import parse
    from sulmin.homology_oracle import module_homology_dims
    module = parse(source_text)
    first = out.splitlines()[0] if out else ""
    if not (first.startswith("H = {") and first.endswith("}")):
        return "no class line"
    names = [s for s in first[len("H = {"):-1].split(", ") if s]
    degree_of = dict(module.generators)
    if any(name not in degree_of for name in names):
        return "class line names an unknown generator"
    got = Counter(degree_of[name] for name in names)
    want = Counter({p: dim for p, dim in module_homology_dims(module) if dim})
    if got != want:
        return f"classes per degree {dict(sorted(got.items()))} != homology {dict(sorted(want.items()))}"
    return None
