"""Exact simulation of the two-type branching process with genealogy and
per-edge neutral mutation counts.

Divisions are simulated at the mechanism level: a sensitive division picks
two daughters, each independently resistant with probability gamma_n and
each receiving an independent neutral-mutation count of mean omega/2.
``run`` uses that the process is a Markov branching process (Harris 1963):
every cell lives an independent Exp(b+d) lifetime and then divides or dies,
so cells are simulated one lifetime at a time, depth first, with no global
event clock.

Mutations are stored as counts on genealogy edges; the site frequency
spectrum is extracted in one bottom-up pass counting living resistant
descendants per edge.

``sample_sfs`` is the sampler replicates run.  It is ``run``'s loop with the
same stacks and the same draws in the same order, but it keeps no genealogy:
only a dividing cell gets a slot (its mother's slot and its edge's mutation
count), a resistant cell alive at the observation time counts itself into its
mother's slot, and one reverse pass over the slots propagates the carrier
counts and fills the spectrum.  Its record, founder count and final resistant
count equal ``extract_sfs(run(...))``, ``len(ancestral)`` and ``z1_final`` on
the same generator, so ``run`` remains the full-genealogy reference.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from random import Random

from rescue_sfs.params import ModelParams

SENSITIVE = 0
RESISTANT = 1

STATUS_ALIVE = 0
STATUS_DEAD = 1
STATUS_DIVIDED = 2


class PopulationCapError(RuntimeError):
    """The genealogy exceeded the configured safety cap."""


@dataclass
class SimOutcome:
    """Full genealogy forest of one run plus run-level counters.

    Node arrays are parallel; parents always precede children.  ``status``
    is the node's state at the observation time.  An edge's origin is its
    mother's type: ``cell_type[parent[idx]]``.
    """

    params: ModelParams
    t_obs: float
    parent: list[int]
    cell_type: list[int]
    edge_mutations: list[int]
    status: list[int]
    n_roots: int
    z0_final: int
    z1_final: int
    event_counts: list[int]
    ancestral: list[tuple[float, int, int]]  # (birth time, generation, root id)

    @property
    def n_nodes(self) -> int:
        return len(self.parent)


@dataclass
class SfsRecord:
    """Sparse site frequency spectrum split by origin.

    ``s_resistant_origin[i]`` and ``s_sensitive_origin[i]`` count mutations
    carried by exactly i living resistant cells that were born at resistant
    and at sensitive divisions; only nonzero counts are stored.
    """

    s_resistant_origin: dict[int, int]
    s_sensitive_origin: dict[int, int]
    t_obs: float

    @property
    def s(self) -> dict[int, int]:
        """The total spectrum, s_resistant_origin + s_sensitive_origin index-wise."""
        s = dict(self.s_resistant_origin)
        for i, m in self.s_sensitive_origin.items():
            s[i] = s.get(i, 0) + m
        return s

    def total_mutations(self) -> int:
        return sum(self.s_resistant_origin.values()) + sum(self.s_sensitive_origin.values())


@dataclass(frozen=True)
class WindowCounts:
    """Mutation counts inside one open carrier-count window."""

    resistant_origin: int
    sensitive_origin: int

    @property
    def total(self) -> int:
        return self.resistant_origin + self.sensitive_origin


@functools.lru_cache(maxsize=64)
def _mutation_cdf(law: str, omega: float) -> tuple[float, ...]:
    """Cumulative probabilities of the per-daughter mutation count (mean
    omega/2) for inverse-CDF sampling: the count is the first k with
    u < cdf[k], bisect_right(cdf, u).  The last entry is inf, so that k always
    exists; it takes the Poisson tail beyond a term below 1e-18."""
    mean = omega / 2.0
    if mean == 0.0:
        return (math.inf,)
    if law == "bernoulli":
        return (1.0 - mean, math.inf)
    cdf = []
    total = 0.0
    k = 0
    while True:
        term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total += term
        cdf.append(total)
        k += 1
        if k > mean and term < 1e-18:
            break
    cdf[-1] = math.inf
    return tuple(cdf)


def _initial(
    params: ModelParams, t_obs: float, initial: tuple[int, int] | None
) -> tuple[int, int]:
    """The checked starting (sensitive, resistant) population of a run to
    ``t_obs``; ``initial`` defaults to (n_init, 0)."""
    if not 0 <= t_obs < math.inf:
        raise ValueError(f"requires finite t_obs >= 0, got {t_obs}")
    if initial is None:
        initial = (params.n_init, 0)
    n0_init, n1_init = initial
    if n0_init < 0 or n1_init < 0 or n0_init + n1_init == 0:
        raise ValueError(f"initial population must be nonnegative and nonempty, got {initial}")
    return n0_init, n1_init


def _cap_error(max_cells: int, t_obs: float) -> PopulationCapError:
    return PopulationCapError(f"genealogy exceeded max_cells={max_cells} before t_obs={t_obs:.4f}")


def run(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None = None,
    *,
    rng: Random,
    max_cells: int = 5_000_000,
) -> SimOutcome:
    """Simulate the process exactly up to ``t_obs``, one cell at a time,
    drawing every random number from ``rng``.

    ``initial`` is the starting (sensitive, resistant) population; it
    defaults to (n_init, 0).  Cells come off a LIFO stack, sensitive cells
    first and then the resistant cells they produced.  Each cell born at
    time s dies or divides at s + Exp(b+d); a cell whose lifetime reaches
    ``t_obs`` is alive, otherwise it divides with probability b/(b+d) and
    dies otherwise.  Daughters get their type and mutation count at birth.
    Raises PopulationCapError once the genealogy exceeds ``max_cells``
    nodes.
    """
    n0_init, n1_init = _initial(params, t_obs, initial)

    c0 = params.b0 + params.d0
    c1 = params.b1 + params.d1
    divide0 = params.b0 / c0
    divide1 = params.b1 / c1
    gamma_n = params.gamma_n
    cdf = _mutation_cdf(params.mutation_law, params.omega)
    cdf0 = cdf[0]
    cdf1, cdf2 = (cdf + (math.inf, math.inf))[1:3]
    rand = rng.random
    n_roots = n0_init + n1_init

    parent = [-1] * n_roots
    cell_type = [SENSITIVE] * n0_init + [RESISTANT] * n1_init
    edge_mutations = [0] * n_roots
    # every node enters alive; a cell that dies or divides before t_obs is
    # marked when it comes off its stack
    status = [STATUS_ALIVE] * n_roots
    # pending sensitive cells are (node, birth time, generation, root id),
    # so that the resistant founders they produce can be labelled;
    # pending resistant cells are (node, birth time)
    stack0 = [(k, 0.0, 0, k) for k in range(n0_init)]
    stack1 = [(k, 0.0) for k in range(n0_init, n_roots)]
    pop0, push0 = stack0.pop, stack0.append
    pop1, push1 = stack1.pop, stack1.append
    event_counts = [0, 0, 0, 0, 0]
    ancestral: list[tuple[float, int, int]] = []
    z0 = z1 = 0

    while stack0:
        mother, born, g, rid = pop0()
        t = born - math.log(1.0 - rand()) / c0
        if t >= t_obs:
            z0 += 1
            continue
        if rand() >= divide0:
            status[mother] = STATUS_DEAD
            event_counts[1] += 1
            continue
        status[mother] = STATUS_DIVIDED
        g += 1
        flips = 0
        for _ in (0, 1):
            # the daughter's mutation count, inlined in both loops: a
            # sampler call per daughter made run about 6% slower.  Counts
            # 0, 1 and 2 are compared directly and larger ones bisected: at
            # omega = 2 a bisection from 2 made run about 4% slower
            u = rand()
            m = 0
            if u >= cdf0:
                m = 1 if u < cdf1 else 2 if u < cdf2 else bisect_right(cdf, u, 3)
            child = len(parent)
            parent.append(mother)
            edge_mutations.append(m)
            status.append(STATUS_ALIVE)
            if rand() < gamma_n:
                flips += 1
                cell_type.append(RESISTANT)
                push1((child, t))
                ancestral.append((t, g, rid))
            else:
                cell_type.append(SENSITIVE)
                push0((child, t, g, rid))
        event_counts[(0, 2, 3)[flips]] += 1
        if len(parent) > max_cells:
            raise _cap_error(max_cells, t_obs)

    # every node made from here on is a daughter of a resistant division
    first_resistant_daughter = len(parent)
    while stack1:
        mother, born = pop1()
        t = born - math.log(1.0 - rand()) / c1
        if t >= t_obs:
            z1 += 1
            continue
        if rand() >= divide1:
            status[mother] = STATUS_DEAD
            event_counts[4] += 1
            continue
        status[mother] = STATUS_DIVIDED
        for _ in (0, 1):
            u = rand()
            m = 0
            if u >= cdf0:
                m = 1 if u < cdf1 else 2 if u < cdf2 else bisect_right(cdf, u, 3)
            push1((len(parent), t))
            parent.append(mother)
            edge_mutations.append(m)
            status.append(STATUS_ALIVE)
        if len(parent) > max_cells:
            raise _cap_error(max_cells, t_obs)

    n_resistant_daughters = len(parent) - first_resistant_daughter
    event_counts[2] += n_resistant_daughters // 2
    cell_type += [RESISTANT] * n_resistant_daughters
    ancestral.sort()
    return SimOutcome(
        params=params,
        t_obs=t_obs,
        parent=parent,
        cell_type=cell_type,
        edge_mutations=edge_mutations,
        status=status,
        n_roots=n_roots,
        z0_final=z0,
        z1_final=z1,
        event_counts=event_counts,
        ancestral=ancestral,
    )


def sample_sfs(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None = None,
    *,
    rng: Random,
    max_cells: int = 5_000_000,
) -> tuple[SfsRecord, int, int]:
    """``(extract_sfs(out), len(out.ancestral), out.z1_final)`` of
    ``out = run(params, t_obs, initial, rng=rng, max_cells=max_cells)``,
    bit for bit, without building the genealogy.

    The loop is ``run``'s, with the same stacks and the same draws in the
    same order, so a given ``rng`` gives the same record.  Only dividing
    cells are stored, each as one slot holding its mother's slot and its
    edge's mutation count; a resistant cell alive at ``t_obs`` adds 1 to
    its mother's slot and puts its own edge's mutations in bucket 1.  One
    reverse pass over the slots (mothers come before daughters) then adds
    each slot's carrier count to its mother's and fills the buckets.
    Raises ``run``'s PopulationCapError at the same division.
    """
    n0_init, n1_init = _initial(params, t_obs, initial)

    c0 = params.b0 + params.d0
    c1 = params.b1 + params.d1
    divide0 = params.b0 / c0
    divide1 = params.b1 / c1
    gamma_n = params.gamma_n
    cdf = _mutation_cdf(params.mutation_law, params.omega)
    cdf0 = cdf[0]
    cdf1, cdf2 = (cdf + (math.inf, math.inf))[1:3]
    rand = rng.random
    log = math.log
    n_roots = n0_init + n1_init
    # the genealogy has n_roots + 2 * divisions nodes, so the division that
    # makes slot max_slots + 1 is the one at which run exceeds max_cells
    max_slots = (max_cells - n_roots) // 2

    # slot 0 stands for the mothers of the roots; slot k > 0 is the k-th
    # cell to divide.  A pending cell is (birth time, edge mutations, slot
    # of its mother); roots carry no mutations
    mother = [0]
    muts = [0]
    stack0 = [(0.0, 0, 0)] * n0_init
    stack1 = [(0.0, 0, 0)] * n1_init
    pop0, push0 = stack0.pop, stack0.append
    pop1, push1 = stack1.pop, stack1.append
    founders = 0

    while stack0:
        born, m, ms = pop0()
        t = born - log(1.0 - rand()) / c0
        if t >= t_obs or rand() >= divide0:
            continue
        slot = len(mother)
        mother.append(ms)
        muts.append(m)
        for _ in (0, 1):
            u = rand()
            m = 0
            if u >= cdf0:
                m = 1 if u < cdf1 else 2 if u < cdf2 else bisect_right(cdf, u, 3)
            if rand() < gamma_n:
                founders += 1
                push1((t, m, slot))
            else:
                push0((t, m, slot))
        if slot > max_slots:
            raise _cap_error(max_cells, t_obs)

    # an edge is of sensitive origin exactly when its mother's slot is
    # below first_resistant
    first_resistant = len(mother)
    carriers = [0] * first_resistant
    ones_res = ones_sen = 0
    z1 = 0
    while stack1:
        born, m, ms = pop1()
        t = born - log(1.0 - rand()) / c1
        if t >= t_obs:
            z1 += 1
            carriers[ms] += 1
            if m:
                if ms < first_resistant:
                    ones_sen += m
                else:
                    ones_res += m
            continue
        if rand() >= divide1:
            continue
        slot = len(mother)
        mother.append(ms)
        muts.append(m)
        carriers.append(0)
        for _ in (0, 1):
            u = rand()
            m = 0
            if u >= cdf0:
                m = 1 if u < cdf1 else 2 if u < cdf2 else bisect_right(cdf, u, 3)
            push1((t, m, slot))
        if slot > max_slots:
            raise _cap_error(max_cells, t_obs)

    s_res: dict[int, int] = {1: ones_res} if ones_res else {}
    s_sen: dict[int, int] = {1: ones_sen} if ones_sen else {}
    for slot in range(len(mother) - 1, 0, -1):
        c = carriers[slot]
        if c:
            ms = mother[slot]
            carriers[ms] += c
            m = muts[slot]
            if m:
                bucket = s_sen if ms < first_resistant else s_res
                bucket[c] = bucket.get(c, 0) + m
    return SfsRecord(s_resistant_origin=s_res, s_sensitive_origin=s_sen, t_obs=t_obs), founders, z1


def extract_sfs(outcome: SimOutcome) -> SfsRecord:
    """Site frequency spectrum of the living resistant population.

    One bottom-up pass accumulates, for every genealogy edge, the number of
    living resistant cells descending from it (inclusive); an edge carrying
    m > 0 mutations adds m to the bucket of its descendant count, split by
    the type of the dividing mother.  Edges with zero living resistant
    descendants are discarded.
    """
    parent = outcome.parent
    status = outcome.status
    cell_type = outcome.cell_type
    muts = outcome.edge_mutations
    n = len(parent)
    desc = [0] * n
    s_res: dict[int, int] = {}
    s_sen: dict[int, int] = {}
    for idx in range(n - 1, -1, -1):
        c = desc[idx]
        if status[idx] == STATUS_ALIVE and cell_type[idx] == RESISTANT:
            c += 1
            desc[idx] = c
        if c:
            p = parent[idx]
            if p >= 0:
                desc[p] += c
            m = muts[idx]
            if m:
                # roots carry no mutations, so p >= 0 here
                bucket = s_res if cell_type[p] == RESISTANT else s_sen
                bucket[c] = bucket.get(c, 0) + m
    return SfsRecord(
        s_resistant_origin=s_res,
        s_sensitive_origin=s_sen,
        t_obs=outcome.t_obs,
    )


def window_counts(
    record: SfsRecord, x1: float, x2: float, lambda1: float
) -> WindowCounts:
    """Mutation counts with carrier number in the open window
    (x1 e^(lambda1 t_obs), x2 e^(lambda1 t_obs)); x2 may be inf."""
    if not 0 < x1 < x2:
        raise ValueError(f"requires 0 < x1 < x2, got x1={x1}, x2={x2}")
    scale = math.exp(lambda1 * record.t_obs)
    lo = x1 * scale
    hi = x2 * scale if x2 != math.inf else math.inf
    res = sen = 0
    for i, m in record.s_resistant_origin.items():
        if lo < i < hi:
            res += m
    for i, m in record.s_sensitive_origin.items():
        if lo < i < hi:
            sen += m
    return WindowCounts(res, sen)


def dense_into(spectrum: dict[int, int], i_max: int, out, offset: int) -> None:
    """Write a sparse spectrum's counts over 1..i_max to out[offset + i];
    the other slots of ``out`` are left as they are."""
    for i, m in spectrum.items():
        if i <= i_max:
            out[offset + i] = m


def dense_sfs(record: SfsRecord, i_max: int) -> tuple[list[int], list[int], list[int]]:
    """Dense (s, s_resistant_origin, s_sensitive_origin) vectors over
    1..i_max as length-(i_max+1) lists with slot 0 unused."""
    sr = [0] * (i_max + 1)
    ss = [0] * (i_max + 1)
    dense_into(record.s_resistant_origin, i_max, sr, 0)
    dense_into(record.s_sensitive_origin, i_max, ss, 0)
    return [a + b for a, b in zip(sr, ss)], sr, ss
