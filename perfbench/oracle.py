"""Reference answers computed without the package under test.

Everything here is written from the definitions, not from the package's
code: the X/Y three-party Born rule over Gaussian integers, the incidence
LP handed to HiGHS, global sections by brute force, Pauli closures on
packed words, and the conjecture-scan subset draw.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

# ------------------------------------------------------------- X/Y models

XY_PARTIES = 3
# label of "party j measures L": L at position j, I elsewhere; qubit 0 is
# the leftmost letter and the most significant bit of a basis index
XY_LABELS = tuple(sorted(
    "".join(letter if k == j else "I" for k in range(XY_PARTIES))
    for j in range(XY_PARTIES) for letter in "XY"))
XY_CONTEXTS = tuple(sorted(
    tuple(sorted("".join(letters[k] if k == j else "I" for k in range(XY_PARTIES))
                 for j in range(XY_PARTIES)))
    for letters in itertools.product("XY", repeat=XY_PARTIES)))


def _party_letter(label: str) -> tuple[int, str]:
    for j, ch in enumerate(label):
        if ch != "I":
            return j, ch
    raise ValueError(f"identity label {label!r}")


def xy_rows(amplitudes: list[tuple[int, int]]) -> dict[str, dict[str, Fraction]]:
    """Exact Born table of every X/Y context on Gaussian-integer amplitudes.

    For the +1/-1 eigenvector (|0> + u|1>)/sqrt2 of X (u = +-1) or Y
    (u = +-i), the outcome amplitude is sum_b prod_j conj(u_j)^b_j psi(b);
    its squared modulus over 2^n |psi|^2 is the probability. Outcome 0 is
    the +1 eigenvalue. Rows are keyed like the package's JSON form:
    context labels joined by commas, outcome digits in label order.
    """
    n = XY_PARTIES
    norm = sum(re * re + im * im for re, im in amplitudes)
    rows = {}
    for ctx in XY_CONTEXTS:
        parties = [_party_letter(label) for label in ctx]
        row = {}
        for outs in itertools.product((0, 1), repeat=n):
            # conj(u) as a Gaussian unit (re, im) per party
            units = {}
            for (j, letter), o in zip(parties, outs):
                s = -1 if o else 1
                units[j] = (s, 0) if letter == "X" else (0, -s)
            are = aim = 0
            for b in range(1 << n):
                cre, cim = 1, 0
                for j in range(n):
                    if (b >> (n - 1 - j)) & 1:
                        ure, uim = units[j]
                        cre, cim = cre * ure - cim * uim, cre * uim + cim * ure
                pre, pim = amplitudes[b]
                are += cre * pre - cim * pim
                aim += cre * pim + cim * pre
            weight = Fraction(are * are + aim * aim, (1 << n) * norm)
            if weight:
                row["".join(map(str, outs))] = weight
        rows[",".join(ctx)] = row
    return rows


def xy_model_dict(amplitudes: list[tuple[int, int]]) -> dict:
    """The model file the CLI reads, in its documented JSON layout."""
    return {
        "scenario": {"measurements": list(XY_LABELS), "outcomes": [0, 1],
                     "ring": "Z2", "contexts": [list(c) for c in XY_CONTEXTS]},
        "rows": {key: {outs: str(w) for outs, w in row.items()}
                 for key, row in xy_rows(amplitudes).items()},
    }


def _restrict(g: int, ctx: tuple[str, ...]) -> str:
    return "".join(str((g >> XY_LABELS.index(m)) & 1) for m in ctx)


def xy_sections(rows: dict[str, dict[str, Fraction]]) -> tuple[int, bool]:
    """(global section count, logically contextual) by brute force."""
    supports = {tuple(key.split(",")): set(row) for key, row in rows.items()}
    sections = [g for g in range(1 << len(XY_LABELS))
                if all(_restrict(g, ctx) in sup for ctx, sup in supports.items())]
    reached = {ctx: {_restrict(g, ctx) for g in sections} for ctx in supports}
    logical = any(sup - reached[ctx] for ctx, sup in supports.items())
    return len(sections), logical


@functools.cache
def _xy_incidence():
    """Rows (context, local outcome) and the 0/1 matrix over global columns."""
    import numpy as np

    index = [(ctx, "".join(outs)) for ctx in XY_CONTEXTS
             for outs in itertools.product("01", repeat=len(ctx))]
    matrix = np.array([[1.0 if _restrict(g, ctx) == local else 0.0
                        for g in range(1 << len(XY_LABELS))] for ctx, local in index])
    return index, matrix


def xy_ncf_highs(rows: dict[str, dict[str, Fraction]]) -> float:
    """max sum x subject to M x <= v, x >= 0, solved in floats by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    index, matrix = _xy_incidence()
    rhs = [float(rows[",".join(ctx)].get(local, 0)) for ctx, local in index]
    res = linprog(-np.ones(matrix.shape[1]), A_ub=matrix, b_ub=np.array(rhs),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise ArithmeticError(f"HiGHS failed: {res.message}")
    return -res.fun


# ---------------------------------------------------------- Pauli closures

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BIT_LETTERS = {v: k for k, v in _LETTER_BITS.items()}


def pauli_word(text: str) -> tuple[int, int, int]:
    """Hermitian word as (x, z, sign bit); bit j is qubit j (leftmost)."""
    sign = 0
    if text.startswith("-"):
        sign, text = 1, text[1:]
    x = z = 0
    for j, ch in enumerate(text):
        xb, zb = _LETTER_BITS[ch]
        x |= xb << j
        z |= zb << j
    return x, z, sign


def pauli_label(word: tuple[int, int, int], num_qubits: int) -> str:
    x, z, sign = word
    letters = "".join(_BIT_LETTERS[((x >> j) & 1, (z >> j) & 1)]
                      for j in range(num_qubits))
    return ("-" if sign else "") + letters


def pauli_closure(words, limit: int | None = None) -> set | None:
    """Least set holding words and +I, closed under commuting products.

    Returns None as soon as the closure passes ``limit`` members. Signs do
    not affect commutation, so the search runs over unsigned words, each
    carrying a two-bit mask of the signs present (bit s for sign bit s).
    """
    shift = 16
    low = (1 << shift) - 1
    signs: dict[int, int] = {0: 1}
    for x, z, s in words:
        signs[x | z << shift] = signs.get(x | z << shift, 0) | 1 << s
    frontier = dict(signs)
    while frontier:
        added: dict[int, int] = {}
        snapshot = list(signs.items())
        for bu, new_b in frontier.items():
            bx, bz = bu & low, bu >> shift
            by = (bx & bz).bit_count()
            for au, have_a in snapshot:
                ax, az = au & low, au >> shift
                if ((ax & bz).bit_count() + (az & bx).bit_count()) & 1:
                    continue
                if au == bu:
                    if have_a | new_b != 3:
                        continue
                    pu, pm = 0, 2  # x times -x is -I
                else:
                    x, z = ax ^ bx, az ^ bz
                    # letters carry i^(#Y); the product's phase is i^quarter
                    quarter = (((ax & az).bit_count() + by + 2 * (az & bx).bit_count()
                                - (x & z).bit_count()) & 3)
                    same = bool(have_a & new_b)
                    differ = bool(have_a & (new_b ^ 3) or new_b & (have_a ^ 3))
                    pm = same | differ << 1
                    if quarter >> 1:
                        pm = (pm & 1) << 1 | pm >> 1
                    pu = x | z << shift
                fresh = pm & ~(signs.get(pu, 0) | added.get(pu, 0))
                if fresh:
                    added[pu] = added.get(pu, 0) | fresh
        for u, m in added.items():
            signs[u] = signs.get(u, 0) | m
        if limit is not None and sum(m.bit_count() for m in signs.values()) > limit:
            return None
        frontier = added
    return {(u & low, u >> shift, s) for u, m in signs.items() for s in (0, 1) if m >> s & 1}


# ------------------------------------------------------- conjecture scan

def scan_pool_labels(num_qubits: int) -> list[str]:
    """The positive non-identity words in the scan's documented draw order."""
    return [pauli_label((x, z, 0), num_qubits)
            for x in range(1 << num_qubits) for z in range(1 << num_qubits)
            if x or z]


def scan_distinct_sets(num_qubits: int, set_size: int, samples: int, seed: int) -> int:
    """Distinct subsets drawn by a random scan with these arguments."""
    pool = scan_pool_labels(num_qubits)
    rng = random.Random(seed)
    return len({frozenset(rng.sample(pool, set_size)) for _ in range(samples)})
