"""Seeded input generators for the benchmark workloads.

The program under test only ever sees what these functions return: MPS
text, and point values keyed by variable index.  Binaries are always the
first columns of a model, named ``x0, x1, ...`` in index order, so the
index of ``x<j>`` in the parsed model is ``j``.  Every draw comes from a
``random.Random`` seeded with a string that names the workload, the seed
and the item, so the same seed gives the same inputs on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# A row is (name, sense, [(column, coefficient)], rhs); sense is L, G or E.
RowSpec = tuple[str, str, list[tuple[int, int]], int]

CLIQUE_VALUES = (0.25, 0.3, 0.5, 0.6, 0.7, 1.0)
# Models per rounds run: op k runs on model k % ROUND_MODELS, so that the
# luck of one seed's graph counts a quarter as much.
ROUND_MODELS = 4


@dataclass
class Model:
    mps: str
    n_bin: int
    rows: list[RowSpec]
    pairs: list[tuple[int, int]]  # the x_i + x_j <= 1 rows, for point repair
    wheels: list[tuple[list[int], list[int]]]  # planted (cycle, centers)
    big_row: list[int]  # members of the long set-packing row, if any


def write_mps(name: str, n_bin: int, n_cont: int, rows: list[RowSpec],
              obj: list[int]) -> str:
    """MPS text with binaries x0.. first, then continuous c0.. in [0, 10]."""
    entries: list[list[tuple[str, int]]] = [[] for _ in range(n_bin + n_cont)]
    for j, c in enumerate(obj):
        entries[j].append(("OBJ", c))
    for rname, _, coeffs, _ in rows:
        for j, a in coeffs:
            entries[j].append((rname, a))
    col = [f"x{j}" for j in range(n_bin)] + [f"c{j}" for j in range(n_cont)]
    out = [f"NAME {name}", "ROWS", " N OBJ"]
    out += [f" {sense} {rname}" for rname, sense, _, _ in rows]
    out.append("COLUMNS")
    out.append("    MARKER 'MARKER' 'INTORG'")
    for j in range(n_bin + n_cont):
        if j == n_bin:
            out.append("    MARKER 'MARKER' 'INTEND'")
        out += [f"    {col[j]} {rname} {a}" for rname, a in entries[j]]
    if n_cont == 0:
        out.append("    MARKER 'MARKER' 'INTEND'")
    out.append("RHS")
    out += [f"    RHS {rname} {rhs}" for rname, _, _, rhs in rows if rhs != 0]
    out.append("BOUNDS")
    out += [f" BV BND {col[j]}" for j in range(n_bin)]
    out += [f" UP BND {col[j]} 10" for j in range(n_bin, n_bin + n_cont)]
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _pair_rows(pairs: list[tuple[int, int]]) -> list[RowSpec]:
    return [(f"e{k}", "L", [(i, 1), (j, 1)], 1) for k, (i, j) in enumerate(pairs)]


# --------------------------------------------------------------------------
# clique-rounds: stable-set edge formulation, LP-like points


CLIQUE_N = 400
CLIQUE_P = 0.05


def clique_model(seed: int, m: int) -> Model:
    rng = random.Random(f"clique-rounds/{seed}/model/{m}")
    pairs = [(i, j) for i in range(CLIQUE_N) for j in range(i + 1, CLIQUE_N)
             if rng.random() < CLIQUE_P]
    obj = [rng.randint(1, 10) for _ in range(CLIQUE_N)]
    rows = _pair_rows(pairs)
    return Model(write_mps("CLQROUND", CLIQUE_N, 0, rows, obj), CLIQUE_N, rows, pairs, [], [])


def clique_point(model: Model, seed: int, k: int) -> dict[int, float]:
    """Values from CLIQUE_VALUES, then every row scaled down until it
    holds (3 passes), so the point satisfies all of its own rows."""
    rng = random.Random(f"clique-rounds/{seed}/point/{k}")
    x = [rng.choice(CLIQUE_VALUES) for _ in range(model.n_bin)]
    for _ in range(3):
        for i, j in model.pairs:
            s = x[i] + x[j]
            if s > 1.0:
                x[i] /= s
                x[j] /= s
    return dict(enumerate(x))


# --------------------------------------------------------------------------
# oddcycle-rounds: planted odd wheels in noise, plus one long stored row


ODD_N = 200
ODD_WHEELS = 12
ODD_NOISE_P = 0.02
ODD_BIG = 520


def oddcycle_model(seed: int, m: int) -> Model:
    """Wheel shapes follow a fixed pattern (four of each cycle length, four
    of each center count) and the noise has an exact edge count, so that
    seeds differ in where the structure lies, not in how much of it there
    is: op times then differ less between seeds."""
    rng = random.Random(f"oddcycle-rounds/{seed}/model/{m}")
    order = list(range(ODD_N))
    rng.shuffle(order)
    wheels = []
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    pos = 0
    for w in range(ODD_WHEELS):
        length = (5, 7, 9)[w % 3]
        n_center = w * 3 // ODD_WHEELS
        cycle = order[pos:pos + length]
        center = order[pos + length:pos + length + n_center]
        pos += length + n_center
        wheels.append((cycle, center))
        for i in range(length):
            add(cycle[i], cycle[(i + 1) % length])
        for c in center:
            for v in cycle:
                add(c, v)
        if n_center == 2:
            add(center[0], center[1])
    all_pairs = [(i, j) for i in range(ODD_N) for j in range(i + 1, ODD_N)]
    for i, j in rng.sample(all_pairs, round(ODD_NOISE_P * len(all_pairs))):
        add(i, j)
    pairs = sorted(edges)
    big = list(range(ODD_N, ODD_N + ODD_BIG))
    rows = _pair_rows(pairs) + [("big", "L", [(j, 1) for j in big], 1)]
    n_bin = ODD_N + ODD_BIG
    obj = [rng.randint(1, 10) for _ in range(n_bin)]
    return Model(write_mps("ODDROUND", n_bin, 0, rows, obj), n_bin, rows, pairs, wheels, big)


def oddcycle_point(model: Model, seed: int, k: int) -> dict[int, float]:
    """Cycle members near 0.5, centers 0, noise binaries 0.5 / 1 / 0 with
    every 1 that touches a positive neighbor dropped, and three 0.3s on
    the long row: a point that satisfies every row of the model."""
    rng = random.Random(f"oddcycle-rounds/{seed}/point/{k}")
    x = [0.0] * model.n_bin
    planted = set()
    for cycle, center in model.wheels:
        for v in cycle:
            x[v] = rng.uniform(0.45, 0.5)
        planted.update(cycle)
        planted.update(center)
    for j in range(ODD_N):
        if j not in planted:
            x[j] = 0.5 if rng.random() < 0.2 else float(rng.randint(0, 1))
    nbrs: list[list[int]] = [[] for _ in range(ODD_N)]
    for i, j in model.pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    for j in range(ODD_N):
        if x[j] == 1.0 and any(x[u] > 0.0 for u in nbrs[j]):
            x[j] = 0.0
    for j in rng.sample(model.big_row, 3):
        x[j] = 0.3
    return dict(enumerate(x))


# --------------------------------------------------------------------------
# cli-strengthen: knapsacks, one long knapsack, short mixed rows


CLI_MODELS = 4
CLI_N = 1500
CLI_CONT = 50
CLI_BIG = 530
CLI_BIG_SMALL = 40


def cli_model(seed: int, m: int) -> Model:
    rng = random.Random(f"cli-strengthen/{seed}/model/{m}")
    cols = list(range(CLI_N))
    rng.shuffle(cols)
    big = sorted(cols[:CLI_BIG])
    small = sorted(cols[CLI_BIG:CLI_BIG + CLI_BIG_SMALL])
    rows: list[RowSpec] = []
    for r in range(20):  # sizes spread evenly over 30..200
        members = rng.sample(range(CLI_N), 30 + 170 * r // 19)
        coeffs = [(j, rng.randint(1, 100) * (-1 if rng.random() < 0.3 else 1))
                  for j in sorted(members)]
        neg = sum(-a for _, a in coeffs if a < 0)
        rows.append((f"k{r}", "L", coeffs, rng.randint(120, 180) - neg))
    big_coeffs = [(j, rng.randint(70, 100)) for j in big]
    big_coeffs += [(j, rng.randint(15, 50)) for j in small]
    rows.append(("kbig", "L", sorted(big_coeffs), 110))
    # Rows outside the long row avoid its literals, so that each model
    # pays for one extension into its stored clique, not a random number.
    outside = sorted(set(cols[CLI_BIG + CLI_BIG_SMALL:]))
    for r in range(1500):
        pool = big if rng.random() < 0.3 else outside
        members = sorted(rng.sample(pool, rng.randint(2, 12)))
        u = rng.random()
        sense = "L" if u < 0.8 else ("G" if u < 0.9 else "E")
        rows.append((f"p{r}", sense, [(j, 1) for j in members], 1))
    for r in range(20):
        members = sorted(rng.sample(range(CLI_N), rng.randint(2, 6)))
        coeffs = [(j, rng.randint(1, 9)) for j in members]
        coeffs.append((CLI_N + rng.randrange(CLI_CONT), -5))
        rows.append((f"m{r}", "L", coeffs, 0))
    obj = [rng.randint(-10, 10) or 1 for _ in range(CLI_N + CLI_CONT)]
    return Model(write_mps(f"CLISTR{m}", CLI_N, CLI_CONT, rows, obj), CLI_N, rows, [], [], big)
