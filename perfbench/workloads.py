"""The benchmark's workloads: fixed lists of ``fstirling`` CLI invocations.

Seed 0 gives the lists exactly as written below, in that order.  Any other
seed shuffles the list and adds one op for an extra spec ``linear:a,b`` whose
``a, b`` (and, for verify-numeric, ``t``) are drawn from small fixed ranges,
so every seed does work of comparable size.  The program only ever sees the
generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TABLE = "table:tests/data/table12.json"
NUMERIC_F = ("linear:1,0", "linear:2,1", TABLE)
EXTRA_A = (1, 2)
EXTRA_B = (0, 1)
EXTRA_T = ("1", "3/2")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``verify`` ops also get ``--output <file>``."""

    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def opts(self) -> dict:
        return dict(zip(self.argv[1::2], self.argv[2::2]))

    def __str__(self):
        return " ".join(self.argv)


def _op(*argv) -> Op:
    return Op(tuple(str(a) for a in argv))


def _verify(f, t):
    return _op("verify", "--suite", "all", "--f", f, "--t", t, "--max-n", 8)


def _harmonic(p, n, method):
    return _op("harmonic", "--f", "linear:2,1", "--t", "symbolic",
               "--p", p, "--n", n, "--method", method)


def _eulersum(f, n_terms, mode=None, decimal=None):
    argv = ["eulersum", "--f", f, "--r", 2, "--N", n_terms]
    if mode is not None:
        argv += ["--mode", mode]
    if decimal is not None:
        argv += ["--decimal", decimal]
    return _op(*argv)


def _verify_numeric(extra, t_extra):
    ops = [_verify(f, t) for f in NUMERIC_F for t in ("1", "3/2")]
    ops.append(_verify("qpow:1", "1"))
    if extra:
        ops.append(_verify(extra, t_extra))
    return ops


def _symbolic_deep(extra, _t_extra):
    ops = [_verify(f, "symbolic") for f in NUMERIC_F]
    ops += [_harmonic(p, n, m) for p, n in ((5, 20), (3, 24)) for m in ("ftilde", "roots")]
    ops.append(_op("triangle", "--f", "linear:2,1", "--t", "symbolic",
                   "--rows", 40, "--format", "json"))
    ops.append(_op("convpoly", "--f", "linear:2,1", "--t", "symbolic",
                   "--n-max", 10, "--x-max", 30))
    if extra:
        ops.append(_verify(extra, "symbolic"))
    return ops


def _euler_exact(extra, _t_extra):
    ops = [_eulersum("linear:1,0", 100000, decimal=7)]
    ops += [_eulersum("linear:2,1", 10000, mode, decimal=7)
            for mode in ("harmonic_over_f", "fzeta", "fzeta2r")]
    # Exact rendering; N=3000 exceeds Python's 4300-digit str limit today.
    ops += [_eulersum("linear:1,0", n) for n in (1000, 3000)]
    # The one verify op, so that cells_per_s exists on this workload too.
    ops.append(_op("verify", "--suite", "euler-sum-numeric", "--f", "linear:2,1", "--t", "1"))
    if extra:
        ops.append(_eulersum(extra, 10000, decimal=7))
    return ops


WORKLOADS = {
    "verify-numeric": _verify_numeric,
    "symbolic-deep": _symbolic_deep,
    "euler-exact": _euler_exact,
}


def build(workload: str, seed: int) -> list:
    """The op list of ``workload`` for ``seed``."""
    if seed == 0:
        return WORKLOADS[workload](None, None)
    rng = random.Random(seed)
    extra = f"linear:{rng.choice(EXTRA_A)},{rng.choice(EXTRA_B)}"
    ops = WORKLOADS[workload](extra, rng.choice(EXTRA_T))
    rng.shuffle(ops)
    return ops


def setup_ops(ops: list) -> list:
    """The cheapest real op, ``triangle --rows 0``, once per distinct (f, t)."""
    pairs = dict.fromkeys((op.opts["--f"], op.opts.get("--t", "1")) for op in ops)
    return [_op("triangle", "--f", f, "--t", t, "--rows", 0) for f, t in pairs]
