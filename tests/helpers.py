"""Test-only oracles: a naive per-cell mutation-set SFS algorithm and a
hand-built genealogy mirroring the worked one-root example (seven living
resistant cells; spectrum S1=3, S3=1, S7=2)."""

from __future__ import annotations

from collections import Counter

from rescue_sfs.params import ModelParams
from rescue_sfs.simulator import (
    RESISTANT,
    SENSITIVE,
    STATUS_ALIVE,
    STATUS_DEAD,
    STATUS_DIVIDED,
    SimOutcome,
)


def naive_sfs(outcome: SimOutcome):
    """Independent SFS oracle: every cell inherits its ancestors' mutation
    sets top-down (one id per mutated edge); carriers are counted per id,
    and an edge's origin is its mother's type.

    Returns (s, s_resistant_origin, s_sensitive_origin) dicts.
    """
    n = outcome.n_nodes
    sets: list[frozenset] = [frozenset()] * n
    for idx in range(n):
        p = outcome.parent[idx]
        inherited = sets[p] if p >= 0 else frozenset()
        if outcome.edge_mutations[idx] > 0:
            sets[idx] = inherited | {idx}
        else:
            sets[idx] = inherited
    carriers: Counter = Counter()
    for idx in range(n):
        if outcome.status[idx] == STATUS_ALIVE and outcome.cell_type[idx] == RESISTANT:
            for edge in sets[idx]:
                carriers[edge] += 1
    s: Counter = Counter()
    s_res: Counter = Counter()
    s_sen: Counter = Counter()
    for edge, count in carriers.items():
        m = outcome.edge_mutations[edge]
        s[count] += m
        if outcome.cell_type[outcome.parent[edge]] == RESISTANT:
            s_res[count] += m
        else:
            s_sen[count] += m
    return dict(s), dict(s_res), dict(s_sen)


def carried_copy_total(outcome: SimOutcome) -> int:
    """Total mutation copies over living resistant cells (= sum_i i * S_i)."""
    n = outcome.n_nodes
    totals = [0] * n
    for idx in range(n):
        p = outcome.parent[idx]
        totals[idx] = (totals[p] if p >= 0 else 0) + outcome.edge_mutations[idx]
    return sum(
        totals[idx]
        for idx in range(n)
        if outcome.status[idx] == STATUS_ALIVE and outcome.cell_type[idx] == RESISTANT
    )


def build_single_root_example(params: ModelParams) -> SimOutcome:
    """One sensitive root whose progeny ends with 7 living resistant cells.

    Edge mutations: the root's first division puts two mutations on daughter
    A (carried by all 7) and one on daughter B (no resistant descendants);
    one resistant-division mutation ends up carried by 3 cells and three by
    exactly one cell each; two more sit on lineages with no living
    resistant descendants.
    """
    S, R = SENSITIVE, RESISTANT
    AL, DE, DV = STATUS_ALIVE, STATUS_DEAD, STATUS_DIVIDED
    #          parent type muts status
    rows = [
        (-1, S, 0, DV),  # 0 root
        (0, S, 2, DV),  # 1 A, mutations {1,2}
        (0, S, 1, DV),  # 2 B, {3}
        (2, S, 1, AL),  # 3 B1, {5}
        (2, S, 1, AL),  # 4 B2, {6}
        (1, R, 0, DV),  # 5 A1, the ancestral resistant cell
        (1, S, 1, DE),  # 6 A2, {10}
        (5, R, 1, DV),  # 7 C, {4}
        (5, R, 0, DV),  # 8 D
        (7, R, 1, AL),  # 9 C1, {7}
        (7, R, 0, DV),  # 10 C2
        (10, R, 1, AL),  # 11 C2a, {8}
        (10, R, 0, AL),  # 12 C2b
        (8, R, 1, AL),  # 13 D1, {9}
        (8, R, 0, DV),  # 14 D2
        (14, R, 0, AL),  # 15 D2a
        (14, R, 0, DV),  # 16 D2b
        (16, R, 0, AL),  # 17
        (16, R, 0, AL),  # 18
    ]
    return SimOutcome(
        params=params,
        t_obs=1.0,
        parent=[r[0] for r in rows],
        cell_type=[r[1] for r in rows],
        edge_mutations=[r[2] for r in rows],
        status=[r[3] for r in rows],
        n_roots=1,
        z0_final=2,
        z1_final=7,
        event_counts=[0, 0, 0, 0, 0],
        expected_class_weights=None,
        ancestral=[(0.0, 2, 0)],
    )
