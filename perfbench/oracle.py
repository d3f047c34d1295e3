"""Independent oracles and seeded input generators for the benchmark.

Nothing here calls the library: the counts come from closed formulas and the
inputs are plain integers, so a defect in the program cannot hide itself.
"""

import random
from math import gcd


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def mti_count(g, p):
    """Maximal isotropic subgroups of (Z/p)^(2g) for prime p: prod_i (p^i + 1)."""
    if not is_prime(p):
        raise ValueError(f"the closed count needs a prime level, got {p}")
    count = 1
    for i in range(1, g + 1):
        count *= p**i + 1
    return count


def cyclic_subgroup_count(m):
    """Cyclic subgroups of order m in (Z/m)^2: psi(m) = m * prod_{p | m} (1 + 1/p).

    For prime m this is m + 1, the number of labels a degree-m cover has.
    """
    count, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            count = count // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        count = count // rest * (rest + 1)
    return count


def prime_labels(p):
    """The canonical labels a:b of the p + 1 lines of (Z/p)^2, in sorted order."""
    return ["0:1"] + [f"1:{b}" for b in range(p)]


def rng_for(workload, seed, purpose):
    """A generator that depends only on the workload, the seed and its use."""
    return random.Random(f"{workload}:{seed}:{purpose}")


def unimodular(rng, n, steps=6, max_entry=2):
    """A random n x n integer matrix of determinant +-1 with small entries.

    Built from elementary row operations and a signed permutation; draws that
    grow an entry past ``max_entry`` are redrawn, which keeps the arithmetic
    cost of every seed alike.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    done = 0
    while done < steps:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        new = [a + c * b for a, b in zip(rows[i], rows[j])]
        if max(abs(x) for x in new) > max_entry:
            continue
        rows[i] = new
        done += 1
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * x for x in rows[perm[i]]] for i in range(n)]


def symplectic_gram(A):
    """A^T J A for the standard symplectic J = [[0, I], [-I, 0]]."""
    n = len(A)
    g = n // 2
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[i][g + i], J[g + i][i] = 1, -1
    JA = [[sum(J[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(A[k][i] * JA[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def voltages(rng, g, m):
    """Random voltages on the 2g edges of the one-vertex genus-g surface graph.

    Every face total vanishes on that graph, so the cover is unramified; the
    draw is repeated until the voltages generate Z/m, so it is connected.
    """
    while True:
        values = [rng.randrange(m) for _ in range(2 * g)]
        if gcd(m, *values) == 1:
            return values
