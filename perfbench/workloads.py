"""Workload definitions: seeded inputs, the calls that are timed, answer checks.

Inputs are made here from the seed with the benchmark's own code, so the
library only ever sees the generated partitions.  The checks are also the
benchmark's own (ladder counts, hook lengths, regularity) or compare against
constants that do not depend on the seed.

Each sweep workload is an object with ``inputs(seed, tiny)``,
``run(api, inputs)`` (the timed part), ``check(inputs, results, api)``, which
returns a list of error strings, and ``answer(results)``, which the traced and
untraced runs must agree on.  ``point_queries`` is a stream of batches of
single queries instead; see ``batch``, ``run_query`` and ``check_query``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from collections import Counter
from time import process_time

# --- benchmark-side combinatorics (independent of the library) -------------


def partitions_of(n: int, cap: int | None = None):
    """All partitions of n with parts at most cap, largest-first."""
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def random_partition(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random partition of n.

    Boltzmann sampling of the multiplicities of parts 2..n, then the
    multiplicity of part 1 is forced and accepted with probability q**r
    (probabilistic divide-and-conquer), which makes the result exactly uniform.
    """
    q = math.exp(-math.pi / math.sqrt(6 * n))
    while True:
        mult = {}
        total = 0
        for k in range(2, n + 1):
            m = int(math.log(1.0 - rng.random()) / (k * math.log(q)))
            if m:
                mult[k] = m
                total += k * m
                if total > n:
                    break
        rest = n - total
        if rest >= 0 and rng.random() < q**rest:
            mult[1] = rest
            return tuple(k for k in sorted(mult, reverse=True) for _ in range(mult[k]))


def transposed(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, (lam[0] if lam else 0) + 1))


def hooks_and_arms(lam: tuple[int, ...]):
    cols = transposed(lam)
    for i, part in enumerate(lam):
        for j in range(part):
            yield part - j + cols[j] - i - 1, part - j - 1


def is_core(lam: tuple[int, ...], ell: int) -> bool:
    return all(h % ell for h, _ in hooks_and_arms(lam))


def is_ladder_node(lam: tuple[int, ...], ell: int) -> bool:
    """No hook length equals ell times its arm: the fixed points of deregularization."""
    return all(h != ell * a for h, a in hooks_and_arms(lam))


def is_partition(lam) -> bool:
    return all(p > 0 for p in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def is_regular(lam: tuple[int, ...], ell: int) -> bool:
    return all(count < ell for count in Counter(lam).values())


def ladder_counts(lam: tuple[int, ...], ell: int) -> Counter:
    """Boxes per ladder; ladder k holds the positions (row, col) with row + (ell-1)(col-1) = k."""
    counts = Counter()
    for row, part in enumerate(lam, start=1):
        for col in range(1, part + 1):
            counts[row + (ell - 1) * (col - 1)] += 1
    return counts


def regularized(lam: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """Slide every ladder's boxes to its topmost positions (James's regularization)."""
    rows = Counter()
    for k, count in ladder_counts(lam, ell).items():
        top_col = (k - 1) // (ell - 1) + 1
        for col in range(top_col, top_col - count, -1):
            rows[k - (ell - 1) * (col - 1)] += 1
    return tuple(rows[r] for r in range(1, len(rows) + 1))


# reference_seconds() on the machine the baseline was recorded on, in a fast period.
REFERENCE_S = 0.015
# A point-query batch runs for seconds, and the host's speed changes within
# that; a reference loop after every this many queries samples it throughout.
REFERENCE_EVERY = 8


def reference_seconds() -> float:
    """CPU time of a fixed pure-Python loop of the benchmark's own code.

    It allocates and walks tuples like the package does, with the garbage
    collector off so that the size of the heap around it does not matter.
    Time metrics are rescaled by REFERENCE_S / reference_seconds(), measured
    in the same process right next to the timed work, so that slow and fast
    periods of a shared host cancel out.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        total = 0
        for lam in partitions_of(22):
            for hook, arm in hooks_and_arms(lam):
                total += hook * arm
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _expect(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# --- sweeps ------------------------------------------------------------------


class Sweep:
    TASKS: dict

    def inputs(self, seed: int, tiny: bool) -> dict:
        # The sweep is exhaustive, so the seed only orders its tasks.
        tasks = list(self.TASKS[tiny])
        random.Random(seed).shuffle(tasks)
        return {"tasks": tasks}

    def sizes(self, inputs: dict) -> dict:
        return {"tasks": [list(t) for t in inputs["tasks"]]}

    def reg_class_members(self, results) -> int:
        return 0


class TheoremSweep(Sweep):
    why = "The CLI `suite` use: every theorem check over all partitions up to n from cold caches, touching every layer on small diagrams."
    # (ell, nmax) -> number of checks theorem_suite reports.
    TASKS = {False: ((3, 16), (4, 14)), True: ((3, 7), (4, 6))}
    EXPECTED_CHECKS = {(3, 16): 6197, (4, 14): 4685, (3, 7): 575, (4, 6): 522}

    def run(self, api, inputs: dict) -> list:
        return [(ell, n, api.theorem_suite(ell, n)) for ell, n in inputs["tasks"]]

    def check(self, inputs: dict, results: list, api) -> list[str]:
        errors: list[str] = []
        for ell, n, report in results:
            want = self.EXPECTED_CHECKS[(ell, n)]
            _expect(errors, report.checks == want, f"theorem_suite({ell},{n}) ran {report.checks} checks, want {want}")
            _expect(errors, not report.failures, f"theorem_suite({ell},{n}) reported {len(report.failures)} failures")
        return errors

    def answer(self, results: list) -> list:
        return sorted([ell, n, r.checks, len(r.failures)] for ell, n, r in results)


class CrystalIso(Sweep):
    why = "Crystal signatures and partition corners only (no rimhooks, no jm): shows a crystal-kernel gain and is the no-change workload for core and JM work."
    TASKS = {
        False: (("verify", 3, 18), ("verify", 4, 14), ("build", 3, 22, "classical"), ("build", 3, 22, "ladder")),
        True: (("verify", 3, 6), ("verify", 4, 5), ("build", 3, 7, "classical"), ("build", 3, 7, "ladder")),
    }
    # verify_isomorphism check counts and sha256 of export_dot output.
    EXPECTED = {
        ("verify", 3, 18): 7776,
        ("verify", 4, 14): 5424,
        ("build", 3, 22, "classical"): "5ceb51d55e1e549199c69d3ee4a2849d394cf978c7106c0e750aa51d45b57059",
        ("build", 3, 22, "ladder"): "6b2b8cdb509146075024f423d800869e8f750692e5147246afacc690828be752",
        ("verify", 3, 6): 264,
        ("verify", 4, 5): 272,
        ("build", 3, 7, "classical"): "17aa435a201678defd030a8089964cb91f1afd67c099b1a3a443f7818908a02d",
        ("build", 3, 7, "ladder"): "1981ff7105f39e853bf7e93ea3aee5fe4822df773e3ded6d69c351815e93f16a",
    }

    def run(self, api, inputs: dict) -> list:
        out = []
        for task in inputs["tasks"]:
            if task[0] == "verify":
                out.append((task, api.verify_isomorphism(task[1], task[2])))
            else:
                out.append((task, api.export_dot(api.build_crystal(task[1], task[2], task[3]))))
        return out

    def check(self, inputs: dict, results: list, api) -> list[str]:
        errors: list[str] = []
        for task, value in results:
            want = self.EXPECTED[tuple(task)]
            if task[0] == "verify":
                _expect(errors, value.checks == want, f"verify_isomorphism{task[1:]} ran {value.checks} checks, want {want}")
                _expect(errors, not value.failures, f"verify_isomorphism{task[1:]} reported {len(value.failures)} failures")
            else:
                got = hashlib.sha256(value.encode()).hexdigest()
                _expect(errors, got == want, f"export_dot of build_crystal{task[1:]} has sha256 {got[:12]}, want {want[:12]}")
        return errors

    def answer(self, results: list) -> list:
        return sorted(
            [list(task), value.checks if task[0] == "verify" else hashlib.sha256(value.encode()).hexdigest()]
            for task, value in results
        )


class ClassEnum:
    why = "Regularization classes, deregularization and the JM census: time goes to regular (the p(n) scan, lock_labels) with no crystal-operator calls."
    ELL = 3
    # (reg_class size n, how many seeded inputs, deregularize up to n, census core size, census weight)
    PARAMS = {False: (30, 4, 20, 12, 6), True: (8, 2, 6, 3, 2)}
    # Seed-independent digests of the deregularize sweep and the census.
    EXPECTED = {
        False: (
            "ce86c9f734b6dac5de22a6355b817594aaa9c45f40344bc45aba12c140181d24",
            "1d173165af09d1dc0cd123515e5be80d6ffc03daea3f644db7ddbb7316c42c8e",
        ),
        True: (
            "c9b8f5423e83793c6db88c1ccc97e6a7671541e5292340adefce5c2b87231071",
            "4c6460c4e9ec53bab6bada239f65d21ad0175b5aa5480da3a6258fa931f95d31",
        ),
    }

    def inputs(self, seed: int, tiny: bool) -> dict:
        n, k, dereg_n, core_n, weight = self.PARAMS[tiny]
        rng = random.Random(seed)
        ell = self.ELL
        return {
            "tiny": tiny,
            "reg_class": [random_partition(n, rng) for _ in range(k)],
            "deregularize": [lam for m in range(dereg_n + 1) for lam in partitions_of(m) if is_regular(lam, ell)],
            "census": [
                (core, w)
                for m in range(core_n + 1)
                for core in partitions_of(m)
                if is_core(core, ell)
                for w in range(weight + 1)
            ],
        }

    def run(self, api, inputs: dict) -> dict:
        ell = self.ELL
        return {
            "reg_class": [api.reg_class(lam, ell) for lam in inputs["reg_class"]],
            "deregularize": [api.deregularize(lam, ell) for lam in inputs["deregularize"]],
            "census": [api.enumerate_jm(core, w, ell) for core, w in inputs["census"]],
        }

    def check(self, inputs: dict, results: dict, api) -> list[str]:
        ell = self.ELL
        errors: list[str] = []
        for lam, cls in zip(inputs["reg_class"], results["reg_class"]):
            counts = ladder_counts(lam, ell)
            members = cls.members
            _expect(errors, lam in members, f"reg_class{lam} misses its input")
            _expect(errors, list(members) == sorted(set(members)), f"reg_class{lam} members not sorted and distinct")
            _expect(
                errors,
                all(is_partition(mu) and ladder_counts(mu, ell) == counts for mu in members),
                f"reg_class{lam} has a member with other ladder counts",
            )
            rep = cls.representative
            _expect(errors, is_regular(rep, ell) and ladder_counts(rep, ell) == counts, f"reg_class{lam} representative {rep} is wrong")
        for lam, mu in zip(inputs["deregularize"], results["deregularize"]):
            _expect(
                errors,
                is_partition(mu) and ladder_counts(mu, ell) == ladder_counts(lam, ell) and is_ladder_node(mu, ell),
                f"deregularize{lam} = {mu} changes the ladder counts or is not a ladder node",
            )
        for (core, w), members in zip(inputs["census"], results["census"]):
            size = sum(core) + ell * w
            _expect(errors, len(members) == api.count_jm(core, w, ell), f"enumerate_jm{core, w} disagrees with count_jm")
            _expect(errors, len(set(members)) == len(members), f"enumerate_jm{core, w} repeats a partition")
            _expect(errors, all(sum(lam) == size for lam in members), f"enumerate_jm{core, w} has a member of the wrong size")
        dereg_digest, census_digest = self.EXPECTED[inputs["tiny"]]
        _expect(errors, digest(results["deregularize"]) == dereg_digest, "deregularize sweep digest differs")
        _expect(errors, digest(results["census"]) == census_digest, "JM census digest differs")
        return errors

    def answer(self, results: dict) -> list:
        return [
            [[c.representative, c.members] for c in results["reg_class"]],
            digest(results["deregularize"]),
            digest(results["census"]),
        ]

    def reg_class_members(self, results: dict) -> int:
        return sum(len(c.members) for c in results["reg_class"])

    def sizes(self, inputs: dict) -> dict:
        return {
            "reg_class": [list(lam) for lam in inputs["reg_class"]],
            "deregularize_partitions": len(inputs["deregularize"]),
            "census_pairs": len(inputs["census"]),
        }


# --- point queries -----------------------------------------------------------


class PointQueries:
    why = "Library or notebook use: single queries on large diagrams in a process that lives for a batch of 144, which expose the complexity and recursion depth that the small sweeps hide."
    ELL = 3
    # One batch asks every kind once at every size; sizes are log-spaced over 16..2048.
    SIZES = {False: tuple(round(16 * 128 ** (k / 23)) for k in range(24)), True: (4, 6, 9, 13, 19, 28)}
    KINDS = ("core", "jm", "regularize", "mullineux", "operators", "ladder")
    MAX_FRAME = 4

    def batch(self, seed: int, index: int, tiny: bool) -> list[tuple]:
        rng = random.Random(f"{seed}/{index}")
        ell = self.ELL
        queries = []
        for index, n in enumerate(self.SIZES[tiny]):
            for kind in self.KINDS:
                if kind == "jm":
                    lam = self.jm_partition(n, rng)
                    # Long rows and long columns alternate by size, not by chance:
                    # their cached hook grids differ in memory by about 2x.
                    lam = transposed(lam) if index % 2 else lam
                elif kind == "mullineux":
                    lam = regularized(random_partition(n, rng), ell)
                else:
                    lam = random_partition(n, rng)
                queries.append((kind, ell, lam, rng.randrange(ell)))
        rng.shuffle(queries)
        # Each kind takes its queries largest first, in the slots the shuffle gave it.
        # A recursion that fails caches nothing, while one that succeeds caches its
        # whole chain, which a later, larger query of the same kind could reach
        # and so succeed by chance; largest first, the same queries fail for every
        # seed and batch, and every run's failed fraction is the same.
        for kind in self.KINDS:
            slots = [k for k, query in enumerate(queries) if query[0] == kind]
            ordered = sorted((queries[k] for k in slots), key=lambda query: -sum(query[2]))
            for k, query in zip(slots, ordered):
                queries[k] = query
        return queries

    def jm_partition(self, n: int, rng: random.Random) -> tuple[int, ...]:
        """A (ell,0)-JM partition of size about n.

        In Fayers's decomposition it has mu = () or (1,), a frame of r rows
        and s columns with difference ell-1, and all weight as horizontal
        ell-hooks on row 1.  Its hooks peel off in a chain, so the hereditary
        check walks weight-many partitions (with hooks on several rows it would
        walk exponentially many).
        """
        ell = self.ELL
        while True:
            mu = rng.choice(((), (1,)))  # for ell = 3, the cores with leading differences below ell-1
            r, s = rng.randint(0, self.MAX_FRAME), rng.randint(0, self.MAX_FRAME)
            rows = [s + sum(mu) + (r - i) * (ell - 1) for i in range(r)] + [s + p for p in mu]
            for j in range(s, 0, -1):
                rows += [j] * (ell - 1)
            if sum(rows) <= n:
                break
        rows = rows or [0]
        rows[0] += ell * ((n - sum(rows)) // ell)
        return tuple(p for p in rows if p)

    def run_query(self, api, query: tuple):
        kind, ell, lam, i = query
        if kind == "core":
            core, weight = api.ell_core(lam, ell)
            return [core, weight]
        if kind == "jm":
            return [api.is_jm(lam, ell), api.is_generalized_ell_partition(lam, ell)]
        if kind == "regularize":
            rho = api.regularize(lam, ell)
            return [rho, api.deregularize(rho, ell)]
        if kind == "mullineux":
            return api.mullineux(lam, ell)
        if kind == "operators":
            up, up_hat = api.f_tilde(lam, i, ell), api.f_hat(lam, i, ell)
            down = None if up is None else api.e_tilde(up, i, ell)
            down_hat = None if up_hat is None else api.e_hat(up_hat, i, ell)
            return [up, down, up_hat, down_hat]
        if kind == "ladder":
            return [api.is_ladder_node(lam, ell), api.is_L_partition(lam, ell)]
        raise ValueError(f"unknown query kind {kind!r}")

    def check_query(self, query: tuple, answer) -> str | None:
        """An error message when the answer breaks the kind's invariant."""
        kind, ell, lam, i = query
        n = sum(lam)
        ok = True
        if kind == "core":
            core, weight = answer
            ok = is_partition(core) and sum(core) + ell * weight == n and is_core(core, ell)
        elif kind == "jm":
            ok = answer == [True, True]
        elif kind == "regularize":
            rho, mu = answer
            counts = ladder_counts(lam, ell)
            ok = is_regular(rho, ell) and ladder_counts(rho, ell) == counts
            ok = ok and is_partition(mu) and ladder_counts(mu, ell) == counts and is_ladder_node(mu, ell)
        elif kind == "mullineux":
            ok = is_partition(answer) and is_regular(answer, ell) and sum(answer) == n
        elif kind == "operators":
            for up, down in (answer[:2], answer[2:]):
                if up is not None:
                    grew = sum(up) == n + 1 and all(a >= b for a, b in zip(up, lam))
                    ok = ok and is_partition(up) and grew and down == lam
        elif kind == "ladder":
            node, balanced = answer
            ok = node or not balanced  # L-partitions are ladder nodes
        return None if ok else f"{kind} on {lam} (ell={ell}, i={i}) gave {answer}"

    def sizes(self, tiny: bool) -> dict:
        return {"ell": self.ELL, "sizes": list(self.SIZES[tiny]), "kinds": list(self.KINDS)}


WORKLOADS = {
    "theorem_sweep": TheoremSweep(),
    "crystal_iso": CrystalIso(),
    "class_enum": ClassEnum(),
    "point_queries": PointQueries(),
}
