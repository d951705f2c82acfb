"""catalog_sweep: the library's own self-check, `verify all` and `limits all`.

One round verifies every identity once at each seed of SEEDS (one sample
per call) and runs every classical-limit path.  The seed range is the
same in every round and every run, so that a draw that fails (F3, the
q-Gauss draw at seed 16) fails in every round; the run's seed only sets
the order of the calls.  Ten seeds keep a round near 4 s, so that a run
times each call in several rounds.
"""

import math
import random

SEEDS = range(10, 20)
F3 = ("q_gauss", 16)
MODULES = ()


def make_ops(qs, seed):
    ops = [
        ("verify", (ident, s), "F3" if (ident, s) == F3 else None)
        for s in SEEDS
        for ident in qs.list_identities()
    ]
    ops += [("limit", (path,), None) for path in qs.list_paths()]
    random.Random(f"catalog_sweep|{seed}").shuffle(ops)
    return ops


def call(qs, op):
    kind, args, _ = op
    if kind == "verify":
        return qs.verify(args[0], samples=1, seed=args[1])
    return qs.run_limit(args[0])


def _finite(values):
    return all(math.isfinite(v) for v in values)


class Checker:
    """Each identity and path by its own pass criterion: the two independent
    sides agree within the tolerance class, and a limit path's error is
    below its tolerance and decreasing over the last three steps."""

    def check(self, index, op, out):
        kind, args, _ = op
        if kind == "verify":
            return (
                out.id == args[0]
                and out.samples == 1
                and out.tolerance <= 1e-8
                and not out.failures
                and _finite([out.max_rel_error])
                and out.max_rel_error <= out.tolerance
            )
        errors = list(out.errors)
        return (
            out.name == args[0]
            and out.tolerance <= 1e-3
            and len(errors) >= 3
            and _finite(errors)
            and errors[-1] <= out.tolerance
            and errors[-3] >= errors[-2] >= errors[-1]
        )
