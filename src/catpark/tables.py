"""Reproduction of the reference tables, computed rather than transcribed.

Every table is one record made by ``_table``: a title, a header, string
rows, and annotations (used where the computed content corrects the printed
source).  ``build_table`` puts the table's ``TABLES`` key first, as its
"id".  Rendering to text/csv/json lives in the cli module.
"""

from catpark.caterpillar import enumerate_caterpillar_pk, theta
from catpark.decomposition import decompose, eta
from catpark.engine import gamma_polys_brute, h_decompose, joint_count_tensor, r_polys_brute
from catpark.sequences import canonical_family, enumerate_u_pk


def seq_text(seq):
    return "(" + ",".join(str(v) for v in seq) + ")"


def h_comb_text(coeffs):
    """Render {degree: coeff} as 'h_3 + 5*h_2 + ...', descending."""
    if not coeffs:
        return "0"
    parts = []
    for d in sorted(coeffs, reverse=True):
        c = coeffs[d]
        parts.append(f"h_{d}" if c == 1 else f"{c}*h_{d}")
    return " + ".join(parts)


def _table(title, header, rows, annotations=()):
    return {"title": title, "header": header, "rows": rows,
            "annotations": list(annotations)}


def table_parking_distributions():
    """The 12 parking distributions on the (2,3) tree."""
    return _table(
        "Parking distributions on the regularity-2, length-3 caterpillar",
        ["distribution"],
        [[seq_text(p)] for p in enumerate_caterpillar_pk(2, 3)],
        ["the printed source lists (1,2,3,4,4) twice and omits (1,2,2,4,4); "
         "the corrected set is shown"],
    )


def table_theta():
    """Bounded distributions of length 3 (m=2) and their tree images."""
    return _table(
        "theta on length-3 distributions, m=2",
        ["p", "theta(p)"],
        [[seq_text(p), seq_text(theta(p, 2, 3))]
         for p in enumerate_u_pk(3, canonical_family(2))],
    )


def _decomposition_table(m, n):
    rows = []
    for p in enumerate_u_pk(n, canonical_family(m)):
        comps = decompose(p, m).components
        rows.append([seq_text(p)] + [seq_text(c) for c in comps])
    return _table(f"First-return decompositions, m={m}, n={n}",
                  ["p"] + [f"p{j}" for j in range(1, m + 2)], rows)


def table_q_analogs():
    """The q-luck polynomials for m = 2, 3, 4 and n = 0..4, one pass per m."""
    columns = [[poly.render() for poly in r_polys_brute(m, 4)] for m in (2, 3, 4)]
    return _table(
        "q-luck polynomials R_n for m = 2, 3, 4",
        ["n", "m=2", "m=3", "m=4"],
        [[str(n), *cells] for n, cells in enumerate(zip(*columns))],
    )


def _gamma_h_table(m):
    rows = []
    gammas = gamma_polys_brute(m, 4)
    next(gammas)  # gamma_0 = 1 has no row
    for n, poly in enumerate(gammas, start=1):
        flat = poly.substitute({"u": 1, "v": 1})
        reduced = flat.divide_by_monomial({"q": 1, "t": 1})
        coeffs = h_decompose(flat)
        rows.append([str(n), reduced.render(), h_comb_text(coeffs)])
    return _table(f"Joint luck/frequency polynomials over qt, m={m}",
                  ["n", "gamma_n(q,t,1,1)/qt", "h-combination"], rows)


def table_eta():
    rows = []
    for p in enumerate_u_pk(3, canonical_family(2)):
        comps = decompose(p, 2).components
        rows.append(
            [seq_text(p)] + [seq_text(c) for c in comps] + [seq_text(eta(p, 2))]
        )
    return _table("eta on length-3 distributions, m=2",
                  ["p", "p1", "p2", "p3", "eta(p)"], rows)


def table_tensor():
    """Joint counts on the (2,4) tree, grid over (luck, freq1, freq2)."""
    tensor = joint_count_tensor(2, 4)
    return _table(
        "Joint counts on the (2,4) tree",
        ["k0", "k1", "k2=1", "k2=2", "k2=3", "k2=4"],
        [[str(k0), str(k1)]
         + [str(tensor.count((k0, k1, k2))) for k2 in range(1, 5)]
         for k0 in range(1, 5) for k1 in range(1, 5)],
    )


TABLES = {
    "1": table_parking_distributions,
    "2": table_theta,
    "3": lambda: _decomposition_table(2, 3),
    "4": lambda: _decomposition_table(3, 3),
    "5": table_q_analogs,
    "6": lambda: _gamma_h_table(2),
    "7": lambda: _gamma_h_table(3),
    "8": lambda: _gamma_h_table(4),
    "9": table_eta,
    "10": table_tensor,
}


def build_table(table_id):
    key = str(table_id)
    try:
        builder = TABLES[key]
    except KeyError:
        raise ValueError(
            f"unknown table id {table_id!r}; valid ids are {sorted(TABLES, key=int)}"
        ) from None
    return {"id": key, **builder()}
