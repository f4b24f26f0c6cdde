"""``audit_csv`` against ``audit_csv_reference``, the ``csv.reader`` audit it replaced.

Both must return the same verdict and messages, in the same order, or both
raise ``ValueError``: on every run shape, on seed 0 of each benchmark
workload, and on tampered copies of a small run and of ``comb_dag``.  The
block parser is also pinned at its edges (rows 15-17 and 31-33), on the
order of messages within a block, and on memory: its peak does not grow
with the number of rows.  Cells that only ``float()`` reads (``1_0``, a
quoted number) are audit errors that name their file line.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from squint.harness_cli import _AUDIT_BLOCK, audit_csv, main, parse_config, run_experiment

from oracles import audit_csv_reference
from test_harness_cli import RUN_SHAPES, experts_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def same_audit(path):
    """Assert both audits agree on ``path``; returns the verdict, or None if both raised.

    A file with no header or a line of the wrong length raises the same message in both.
    """
    try:
        expected = audit_csv_reference(str(path))
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            audit_csv(str(path))
        if "fields, the header has" in str(err) or "no header" in str(err):
            assert str(raised.value) == str(err)
        return None
    assert audit_csv(str(path)) == expected
    return expected


def run_lines(doc):
    """Run ``doc`` and return its CSV's lines, line endings kept."""
    run_experiment(parse_config(doc))
    with open(doc["output"]["csv"], newline="") as fh:
        return fh.readlines()


def cell(lines, i, name):
    """The cell of column ``name`` in line ``i``."""
    return lines[i].rstrip("\n").split(",")[lines[0].rstrip("\n").split(",").index(name)]


def put(lines, i, name, value):
    """Set the cell of column ``name`` in line ``i``."""
    col = lines[0].rstrip("\n").split(",").index(name)
    cells = lines[i].rstrip("\n").split(",")
    cells[col] = value
    lines[i] = ",".join(cells) + "\n"


def rename(lines, old, new):
    cells = lines[0].rstrip("\n").split(",")
    cells[cells.index(old)] = new
    lines[0] = ",".join(cells) + "\n"


def sampled(lines):
    """Indices of the lines whose potential was sampled."""
    return [i for i, line in enumerate(lines[1:], 1) if not line.endswith(",\n")]


def items(lines):
    """The audited item names that have a bound column, in header order."""
    return [c[len("bound_") :] for c in lines[0].rstrip("\n").split(",") if c.startswith("bound_")]


def middle(lines):
    return len(lines) // 2


def tamper_r_above(lines):
    put(lines, middle(lines), "R_" + items(lines)[0], "1e9")


def tamper_two_items_one_row(lines):
    names = items(lines)
    put(lines, middle(lines), "R_" + names[-1], "1e9")
    put(lines, middle(lines), "R_" + names[0], "nan")


def tamper_nan_r(lines):
    put(lines, middle(lines), "R_" + items(lines)[-1], "nan")


def tamper_inf_bound(lines):
    put(lines, middle(lines), "bound_" + items(lines)[0], "inf")


def tamper_nan_bound(lines):
    put(lines, -1, "bound_" + items(lines)[0], "nan")


def tamper_potential_above(lines):
    put(lines, sampled(lines)[0], "potential", "1e-8")


def tamper_potential_at_tolerance(lines):
    put(lines, sampled(lines)[0], "potential", "1e-09")


def tamper_nan_potential(lines):
    put(lines, sampled(lines)[-1], "potential", "nan")


def tamper_bound_without_r(lines):
    rename(lines, "R_" + items(lines)[0], "Q_" + items(lines)[0])


def tamper_duplicated_r_name(lines):
    # the first column of the name is a loss, the one audited and the one put sets
    rename(lines, "loss_1", "R_" + items(lines)[0])
    put(lines, middle(lines), "R_" + items(lines)[0], "1e9")


def tamper_duplicated_potential_name(lines):
    rename(lines, "loss_2", "potential")  # the potential is read from a middle column


def tamper_truncated_last_line(lines):
    lines[-1] = ",".join(lines[-1].split(",")[:5])


def tamper_extra_field(lines):
    lines[middle(lines)] = lines[middle(lines)].rstrip("\n") + ",0\n"


def tamper_blank_line(lines):
    lines.insert(middle(lines), "\n")


def tamper_blank_last_line(lines):
    lines.append("\n")


def tamper_blank_header(lines):
    lines.insert(0, "\n")


def tamper_header_only(lines):
    del lines[1:]


def tamper_crlf(lines):
    lines[:] = [line.replace("\n", "\r\n") for line in lines]


def tamper_cr(lines):
    lines[:] = [line.replace("\n", "\r") for line in lines]


def tamper_no_final_newline(lines):
    lines[-1] = lines[-1].rstrip("\n")


def tamper_violation_without_final_newline(lines):
    put(lines, -1, "R_" + items(lines)[0], "1e9")
    lines[-1] = lines[-1].rstrip("\n")


def tamper_empty(lines):
    del lines[:]


TAMPERS = {name[len("tamper_") :]: f for name, f in globals().items() if name.startswith("tamper_")}
PASSING = {"potential_at_tolerance", "header_only", "crlf", "cr", "no_final_newline"}
MALFORMED = {"truncated_last_line", "extra_field", "blank_line", "blank_last_line", "blank_header", "empty"}


class TestDifferential:
    @pytest.mark.parametrize("shape", list(RUN_SHAPES))
    def test_run_shapes(self, tmp_path, shape):
        doc = RUN_SHAPES[shape][0](tmp_path)
        run_experiment(parse_config(doc))
        assert same_audit(doc["output"]["csv"]) == (True, [])

    @pytest.mark.parametrize("name", ["experts_improper", "experts_cv", "experts_iprod", "comb_dag"])
    def test_benchmark_workloads_at_seed_0(self, bench_csv, name):
        assert same_audit(bench_csv(name)) == (True, [])

    @pytest.mark.parametrize("base", ["small", "comb_dag"])
    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_tampered(self, tmp_path, bench_csv, base, tamper):
        if base == "small":
            lines = run_lines(experts_config(tmp_path))
        else:
            lines = Path(bench_csv("comb_dag")).read_text().splitlines(keepends=True)
        TAMPERS[tamper](lines)
        path = tmp_path / "tampered.csv"
        path.write_bytes("".join(lines).encode())
        verdict = same_audit(path)
        if tamper in MALFORMED:
            assert verdict is None
        else:
            assert verdict[0] is (tamper in PASSING)


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    """The CSV path of a benchmark workload's seed-0 run, made once per module."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    made = {}

    def make(name):
        if name not in made:
            out = tmp_path_factory.mktemp(name)
            doc = workloads.config(workloads.load()[name], 0)
            doc["output"] = {"csv": str(out / "run.csv"), "summary": str(out / "run.json")}
            run_experiment(parse_config(doc))
            made[name] = doc["output"]["csv"]
        return made[name]

    return make


class TestBlocks:
    @pytest.mark.parametrize("rows", [15, 16, 17, 33])
    def test_violations_at_block_edges(self, tmp_path, rows):
        assert _AUDIT_BLOCK == 16
        lines = run_lines(experts_config(tmp_path, horizon=rows, potential_every=1))
        edges = [i for i in (0, 15, 16, 31, 32) if i < rows]
        for i in edges:
            put(lines, i + 1, "R_S0", "1e9")
            put(lines, i + 1, "bound_S2", "-inf")
        path = tmp_path / "edges.csv"
        path.write_text("".join(lines))
        ok, problems = same_audit(path)
        assert not ok
        expected = []
        for i in edges:
            expected += [f"t={i + 1}: R=1e9 fails bound_S0", f"t={i + 1}: R="]
        assert [p[: len(e)] for p, e in zip(problems, expected)] == expected
        assert len(problems) == 2 * len(edges)

    def test_messages_interleave_per_row(self, tmp_path):
        lines = run_lines(experts_config(tmp_path, potential_every=1))
        for i in (3, 4):
            put(lines, i, "R_S1", "1e9")
            put(lines, i, "potential", "1.0")
        path = tmp_path / "interleaved.csv"
        path.write_text("".join(lines))
        assert same_audit(path) == (
            False,
            [
                f"t=3: R=1e9 fails bound_S1={cell(lines, 3, 'bound_S1')}",
                "t=3: potential=1.0 exceeds 1e-09",
                f"t=4: R=1e9 fails bound_S1={cell(lines, 4, 'bound_S1')}",
                "t=4: potential=1.0 exceeds 1e-09",
            ],
        )

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        items = [f"C{j}" for j in range(252)]
        header = ["t"] + [f"loss_{i}" for i in range(1, 61)] + [f"u_{i}" for i in range(1, 61)]
        for name in items:
            header += [f"R_{name}", f"V_{name}", f"bound_{name}"]
        cells = rng.uniform(-1.0, 1.0, 120).tolist()
        for _ in items:
            r, v = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 50.0)
            cells += [r, v, 10.0 + math.sqrt(v)]
        body = ",".join(map(repr, cells))
        peaks = {}
        for rows in (100, 2000):
            path = tmp_path / f"rows_{rows}.csv"
            with open(path, "w") as fh:
                fh.write(",".join(header + ["potential"]) + "\n")
                for t in range(1, rows + 1):
                    fh.write(f"{t},{body},{'-0.5' if t % 10 == 0 else ''}\n")
            assert audit_csv(str(path)) == (True, [])  # warm up before measuring
            tracemalloc.start()
            try:
                audit_csv(str(path))
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the 2000-row file is 33 MB; a whole-file read would hold it at once
        assert peaks[2000] <= 1.5 * peaks[100], peaks


class TestParseErrors:
    @pytest.mark.parametrize("value", ["", "abc", "1_0", '"0.5"', "0x1p3"])
    @pytest.mark.parametrize("column", ["R_S0", "bound_S2"])
    @pytest.mark.parametrize("row", [1, 20, 40])
    def test_unreadable_cell_names_its_line(self, tmp_path, capsys, value, column, row):
        lines = run_lines(experts_config(tmp_path))
        put(lines, row, column, value)
        path = tmp_path / "unreadable.csv"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^line {row + 1}: {column}="):
            audit_csv(str(path))
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"audit error: line {row + 1}: {column}={value!r} is not a float")

    @pytest.mark.parametrize("value", ["abc", '"0.5"', "0x1p3", "--1"])
    @pytest.mark.parametrize("row", [1, 10, 40])  # unsampled, sampled and the last line
    def test_unreadable_potential_names_its_line(self, tmp_path, capsys, value, row):
        lines = run_lines(experts_config(tmp_path))
        put(lines, row, "potential", value)
        path = tmp_path / "unreadable.csv"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^line {row + 1}: potential="):
            audit_csv(str(path))
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"audit error: line {row + 1}: potential={value!r} is not a float\n"

    def test_quoted_cell_with_a_comma_is_a_field_count_error(self, tmp_path, capsys):
        lines = run_lines(experts_config(tmp_path))
        put(lines, 5, "R_S0", '"0,5"')
        path = tmp_path / "quoted.csv"
        path.write_text("".join(lines))
        width = lines[0].count(",") + 1
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"audit error: line 6: {width + 1} fields, the header has {width}" in err
