"""Reference-table reproduction."""

import pytest

from catpark.tables import build_table

TABLE_2_ROWS = [
    ["(1,1,1)", "(1,1,1,2,4)"],
    ["(1,1,2)", "(1,1,2,2,4)"],
    ["(1,1,3)", "(1,1,2,3,4)"],
    ["(1,1,4)", "(1,1,2,4,4)"],
    ["(1,1,5)", "(1,1,2,4,5)"],
    ["(1,2,2)", "(1,2,2,2,4)"],
    ["(1,2,3)", "(1,2,2,3,4)"],
    ["(1,2,4)", "(1,2,2,4,4)"],
    ["(1,2,5)", "(1,2,2,4,5)"],
    ["(1,3,3)", "(1,2,3,3,4)"],
    ["(1,3,4)", "(1,2,3,4,4)"],
    ["(1,3,5)", "(1,2,3,4,5)"],
]


def test_table_1_corrected_rows_and_annotation():
    table = build_table(1)
    assert [r[0] for r in table["rows"]] == [r[1] for r in TABLE_2_ROWS]
    assert len(table["rows"]) == 12
    assert any("(1,2,2,4,4)" in note for note in table["annotations"])


def test_table_2_exact():
    table = build_table("2")
    assert table["rows"] == TABLE_2_ROWS


def test_table_3_and_4_shapes():
    t3 = build_table("3")
    assert len(t3["rows"]) == 12
    assert t3["rows"][3] == ["(1,1,4)", "(1)", "(1)", "()"]
    t4 = build_table("4")
    assert len(t4["rows"]) == 22
    assert t4["rows"][6] == ["(1,1,7)", "(1)", "()", "()", "(1)"]
    assert t4["rows"][-1] == ["(1,4,7)", "()", "()", "()", "(1,4)"]


def test_table_5_exact():
    table = build_table("5")
    assert table["rows"] == [
        ["0", "1", "1", "1"],
        ["1", "q", "q", "q"],
        ["2", "q^2 + 2*q", "q^2 + 3*q", "q^2 + 4*q"],
        ["3", "q^3 + 4*q^2 + 7*q", "q^3 + 6*q^2 + 15*q", "q^3 + 8*q^2 + 26*q"],
        ["4", "q^4 + 6*q^3 + 18*q^2 + 30*q", "q^4 + 9*q^3 + 39*q^2 + 91*q",
         "q^4 + 12*q^3 + 68*q^2 + 204*q"],
    ]


def test_tables_6_7_8_h_combinations():
    combos = {
        "6": ["h_0", "h_1 + h_0", "h_2 + 3*h_1 + 3*h_0",
              "h_3 + 5*h_2 + 12*h_1 + 12*h_0"],
        "7": ["h_0", "h_1 + 2*h_0", "h_2 + 5*h_1 + 9*h_0",
              "h_3 + 8*h_2 + 30*h_1 + 52*h_0"],
        "8": ["h_0", "h_1 + 3*h_0", "h_2 + 7*h_1 + 18*h_0",
              "h_3 + 11*h_2 + 56*h_1 + 136*h_0"],
    }
    for table_id, expected in combos.items():
        table = build_table(table_id)
        assert [row[2] for row in table["rows"]] == expected


def test_table_6_polynomials():
    table = build_table("6")
    assert table["rows"][1][1] == "q + t + 1"
    assert table["rows"][2][1] == "q^2 + q*t + t^2 + 3*q + 3*t + 3"


def test_table_9_exact():
    table = build_table("9")
    assert [row[0] for row in table["rows"]] == [r[0] for r in TABLE_2_ROWS]
    assert [row[-1] for row in table["rows"]] == [
        "(1,1,1)", "(1,1,4)", "(1,1,5)", "(1,1,2)", "(1,1,3)",
        "(1,2,2)", "(1,2,4)", "(1,2,5)", "(1,2,3)",
        "(1,3,3)", "(1,3,4)", "(1,3,5)",
    ]


def test_table_10_grid():
    table = build_table("10")
    assert len(table["rows"]) == 16
    grid = {(int(r[0]), int(r[1])): [int(c) for c in r[2:]]
            for r in table["rows"]}
    assert grid[(1, 1)] == [0, 7, 4, 1]
    assert grid[(1, 2)] == [7, 4, 1, 0]
    assert grid[(2, 1)] == [7, 4, 1, 0]
    assert grid[(3, 1)] == [4, 1, 0, 0]
    assert grid[(4, 1)] == [1, 0, 0, 0]
    assert grid[(4, 4)] == [0, 0, 0, 0]


@pytest.mark.parametrize("table_id,passes", [
    ("5", [("luck", m) for m in (2, 3, 4)]),
    ("6", [("quad", 2)]), ("7", [("quad", 3)]), ("8", [("quad", 4)])])
def test_polynomial_tables_run_one_pass_per_m(transfer_steps, table_id, passes):
    """Each m's lengths 0..4 come from one pass: steps k = 2, 3, 4."""
    build_table(table_id)
    assert transfer_steps == [(statistic, m, k) for statistic, m in passes
                              for k in (2, 3, 4)]


def test_unknown_table_id():
    with pytest.raises(ValueError):
        build_table("11")


@pytest.mark.parametrize("table_id", range(1, 11))
def test_table_record_carries_its_key_first(table_id):
    for given in (table_id, str(table_id)):
        table = build_table(given)
        assert table["id"] == str(table_id)
        assert list(table) == ["id", "title", "header", "rows", "annotations"]
