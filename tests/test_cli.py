"""End-to-end checks of the command-line interface and its artifacts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import count_operator_builds
from nulltorus import catalog, classify, spinorfield, validation
from nulltorus.cli import main, parse_point, parse_structure
from nulltorus.errors import ConfigError
from nulltorus.spin import SpinStructure
from nulltorus.tolerances import DEFAULT


@pytest.fixture()
def runner():
    return CliRunner()


def _json_out(result):
    assert result.exit_code in (0, 1, 2), result.output
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_structure_aliases():
    assert parse_structure("trivial") == SpinStructure(1, 1)
    assert parse_structure("+-") == SpinStructure(1, -1)
    assert parse_structure("-1,1") == SpinStructure(-1, 1)
    assert parse_structure("+1,-1") == SpinStructure(1, -1)
    for bad in ("2,5", "plus", "1", "1,1,1"):
        with pytest.raises(ConfigError):
            parse_structure(bad)


def test_parse_point():
    assert parse_point("0.25,0.5") == (0.25, 0.5)
    assert parse_point((1, 2)) == (1.0, 2.0)
    with pytest.raises(ConfigError):
        parse_point("1;2")


# ---------------------------------------------------------------------------
# artifacts


def test_flow_csv_artifact(runner):
    result = runner.invoke(main, ["flow", "--metric", "flat",
                                  "--from", "0,0", "--tmax", "1"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("# tolerances ")
    tol = json.loads(lines[0].removeprefix("# tolerances "))
    assert tol["ode_step"] == 1e-3
    assert lines[1] == "t,x1_cover,x2_cover,x1_torus,x2_torus"
    last = lines[-1].split(",")
    # the flat X-line through the origin is the diagonal
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)


def test_artifacts_are_byte_deterministic(runner):
    args = ["table", "--metric", "left_invariant:1,1"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_rotation_json_schema(runner):
    result = runner.invoke(main, ["rotation", "--metric", "analex"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert payload["command"] == "rotation"
    assert payload["value"] == pytest.approx(-1.0, abs=1e-6)
    assert payload["rational"]["p"] == -1
    assert payload["rational"]["q"] == 1
    assert "tolerances" in payload
    # canonical serialization: keys arrive sorted
    keys = [line.split('"')[1] for line in result.output.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_table_csv_matches_spectral_column(runner):
    result = runner.invoke(main, ["table", "--metric", "left_invariant:1,1"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[1] == "a1,a2,quantity,value,certificate,family,spectral_count"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    verdicts = {(int(r[0]), int(r[1])): r[3] for r in rows}
    assert verdicts == {(1, 1): "Infinite", (1, -1): "Zero",
                        (-1, 1): "Zero", (-1, -1): "Infinite"}
    for r in rows:
        assert r[6] == r[3]          # exact solver agrees with the verdict


def test_table_closed_diagonal_23_agrees_with_spectral(runner):
    """Rotation 2/3 used to go uncertified: DenseLine rows contradicting the
    spectral column, with exit code 0."""
    result = runner.invoke(main, ["table", "--metric", "closed_diagonal:2,3",
                                  "--quantity", "delta_plus,tau_minus"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 8
    for row in rows:
        assert row["certificate"] != "DenseLine"
        assert row["value"] == row["spectral_count"]


def test_rotation_is_exact_where_the_quadrature_covers(runner):
    """analex_sanchez at c = 2.5: rotation prints 1/Theta, the lattice
    quadrature's value, and the DenseFlow message quotes the same."""
    payload = _json_out(runner.invoke(main, [
        "rotation", "--metric", "analex_sanchez:c=2.5"]))
    assert payload["method"] == "lattice"
    assert payload["rational"] is None
    assert abs(payload["value"] - 0.183303028) < 1e-9
    dense = _json_out(runner.invoke(main, [
        "decompose", "--metric", "analex_sanchez:c=2.5"]))
    assert dense["verdict"] == "Dense"
    assert "rotation number 0.183303028 has" in dense["message"]
    # analex's Y family: its phase velocity has zeros, so its lines turn
    # vertical in the lattice basis, and the rotation is A e2 = (1, 1)
    vertical = _json_out(runner.invoke(main, ["rotation", "--metric",
                                              "analex", "--family", "Y"]))
    assert vertical["method"] == "lattice" and vertical["value"] == 1.0
    assert vertical["rational"] == {"p": 1, "q": 1, "residual": 0.0}


def test_table_at_the_period_cap_agrees_with_spectral(runner):
    """closed_diagonal:37,64 closes at q = 64, the longest period the flow
    code verifies: every row equals its spectral count."""
    result = runner.invoke(main, ["table", "--metric", "closed_diagonal:37,64",
                                  "--quantity", "delta_plus,tau_minus"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 8
    assert all(row["value"] == row["spectral_count"] for row in rows)


@pytest.mark.parametrize("command", ["decompose", "table"])
def test_period_past_the_cap_is_inconclusive(runner, command):
    """left_invariant:1,65 closes at q = 65: beyond the cap, exit 2."""
    result = runner.invoke(main, [command, "--metric", "left_invariant:1,65"])
    payload = _json_out(result)
    assert result.exit_code == 2
    assert payload["error"] == "Inconclusive"
    assert payload["measured"] == 65.0


@pytest.mark.parametrize("metric", ["closed_diagonal:2,3",
                                    "closed_diagonal:3,5,amp=0.2,k=2,l=1"])
def test_table_y_without_a_credible_period_is_dense(runner, metric):
    """The quadrature's exact Y rotations (-0.6722978797 and -0.6014877800)
    have convergents of period 5801 and 941 whose residuals (6.1e-11,
    9.9e-10) are far above the quadrature's own error: the flows are dense,
    so the rows are definite DenseLine rows, not a long-period Inconclusive.
    The true periods 1/65 and 37/64 keep their verdicts (the two tests
    above)."""
    result = runner.invoke(main, ["table", "--metric", metric,
                                  "--quantity", "delta_minus,tau_plus"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 8
    assert {row["certificate"] for row in rows} == {"DenseLine"}
    assert all(row["family"] == "Y" for row in rows)


def test_table_disagreement_is_exit_two(runner, monkeypatch):
    class Wrong:
        count_class = "Zero"

    monkeypatch.setattr(spinorfield, "exact_solver",
                        lambda spec, tol, family: lambda *a, **k: Wrong())
    result = runner.invoke(main, ["table", "--metric", "left_invariant:1,1"])
    assert result.exit_code == 2
    lines = result.stdout.splitlines()
    assert lines[1] == "a1,a2,quantity,value,certificate,family,spectral_count"
    assert len(lines) == 6                       # the table is still emitted
    assert result.stderr.startswith("Inconclusive")
    # (1, -1) and (-1, 1) are Zero as well and agree; the others are named
    named = [clash.split()[0] for clash in
             result.stderr.split("count: ", 1)[1].split("; ")]
    assert named == ["1,1", "-1,-1"]


@pytest.mark.parametrize("ratio", ["1,1", "1,2", "2,3", "3,5", "sqrt2,1"])
def test_table_y_rows_carry_spectral_count(runner, ratio):
    result = runner.invoke(main, ["table", "--metric",
                                  f"left_invariant:{ratio}", "--quantity",
                                  "delta_minus,tau_plus"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 8
    for row in rows:
        assert row["family"] == "Y"
        assert row["spectral_count"] == row["value"]


def test_table_wave_y_is_definite(runner):
    """The numeric route left this Y family Inconclusive (a loop integral of
    1.298e-6 between the thresholds, exit 2); the phase rule certifies it,
    and the dense Y-lines give definite rows."""
    result = runner.invoke(main, ["table", "--metric",
                                  "closed_diagonal:1,2,amp=0.1,k=1,l=-1",
                                  "--quantity", "delta_minus,tau_plus"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 8
    assert {row["certificate"] for row in rows} == {"DenseLine"}
    assert all(row["value"] == ("One" if row["a1"] == row["a2"] == "1"
                                else "Zero") for row in rows)


@pytest.mark.parametrize("metric,quantities,solver,expected", [
    ("closed_diagonal:2,3", "delta_plus,tau_minus", "solve_closed_diagonal",
     ["X"] * 4),
    ("left_invariant:1,2", "delta_plus,delta_minus,tau_plus,tau_minus",
     "solve_left_invariant", ["X"] * 4 + ["Y"] * 4),
])
def test_table_counts_once_per_structure_and_family(runner, monkeypatch,
                                                    metric, quantities,
                                                    solver, expected):
    families = []
    solve = getattr(spinorfield, solver)

    def counting(*args, **kwargs):
        families.append(kwargs.get("family", "X"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(spinorfield, solver, counting)
    result = runner.invoke(main, ["table", "--metric", metric,
                                  "--quantity", quantities])
    assert result.exit_code == 0, result.output
    assert families == expected


def test_decompose_json_rosatau(runner):
    """One resonant band of closed vertical lines, and the isolated closed
    line at the zero of tau between two asymptotic gaps."""
    result = runner.invoke(main, ["decompose", "--metric", "rosatau"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert sorted(payload) == ["axis", "command", "family", "intervals",
                               "isolated_closed", "rotation", "tolerances",
                               "verdict"]
    assert payload["command"] == "decompose"
    assert payload["verdict"] == "CylinderDecomposition"
    assert (payload["family"], payload["axis"]) == ("X", 1)
    assert sorted(payload["rotation"]) == ["p", "q", "residual"]
    assert (payload["rotation"]["p"], payload["rotation"]["q"]) == (0, 1)
    intervals = payload["intervals"]
    assert all(sorted(iv) == ["hi", "kind", "lo", "width"]
               for iv in intervals)
    assert [iv["kind"] for iv in intervals] == ["Resonant", "Asymptotic",
                                                "Asymptotic"]
    band = intervals[0]
    assert band["lo"] == pytest.approx(0.447, abs=1e-3)
    assert band["hi"] == pytest.approx(1.153, abs=1e-3)
    for iv in intervals:
        assert iv["width"] == iv["hi"] - iv["lo"]
    assert payload["isolated_closed"] == [pytest.approx(0.3, abs=1e-9)]
    # the gaps meet at the isolated line, one period above the seed value
    assert intervals[1]["hi"] == intervals[2]["lo"] == pytest.approx(
        1.3, abs=1e-9)


def test_classify_line_json_analex(runner):
    result = runner.invoke(main, ["classify-line", "--metric", "analex",
                                  "--from", "0.3,0.7"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert sorted(payload) == ["command", "displacement", "family", "from",
                               "kind", "period", "tolerances", "winding"]
    assert payload["command"] == "classify-line"
    assert (payload["family"], payload["from"]) == ("X", [0.3, 0.7])
    assert payload["kind"] == "Closed"
    assert payload["winding"] == [1, -1]
    assert payload["period"] == 1.0
    assert abs(payload["displacement"]) < DEFAULT.closedness


def test_holonomy_csv_rosatau(runner):
    result = runner.invoke(main, ["holonomy", "--metric", "rosatau",
                                  "--seed-w", "0.3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == 4
    for row in rows:
        assert (int(row["winding1"]), int(row["winding2"])) == (0, 1)
        assert int(row["character"]) == int(row["a2"])
        assert float(row["boost"]) == pytest.approx(-0.25, abs=1e-6)
        assert row["x_trivial"] == "false"   # nonzero boost blocks them all


def test_holonomy_of_an_open_seed_is_exit_one(runner):
    """rosatau's X-line through x1 = 0.2 lies in an asymptotic gap: its
    phase is off every zero of tau and in no band, so it has no holonomy."""
    result = runner.invoke(main, ["holonomy", "--metric", "rosatau",
                                  "--seed-w", "0.2"])
    payload = _json_out(result)
    assert result.exit_code == 1
    assert payload["error"] == "DenseFlow"
    assert "w=0.200000 does not close" in payload["message"]


def test_classify_json(runner):
    result = runner.invoke(main, ["classify", "--metric", "analex",
                                  "--structure", "--"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert payload["value"] == "Infinite"
    assert payload["certificate"] == "XTrivialResonant"
    assert payload["structure"] == [-1, -1]
    assert payload["scf"]["kind"] == "analytic"


def test_classify_contradiction_is_exit_two(runner, monkeypatch):
    """classify writes its report unchanged, then names a clash with the
    exact spectral count on stderr and exits 2, as table does."""
    args = ["classify", "--metric", "left_invariant:1,1"]
    agreed = runner.invoke(main, args)
    assert agreed.exit_code == 0 and agreed.stderr == ""
    monkeypatch.setattr(classify, "spectral_count",
                        lambda spec, structure, family, tol: "Zero")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == agreed.stdout
    assert json.loads(result.stdout)["value"] == "Infinite"
    assert result.stderr.startswith("Inconclusive")
    assert "delta_plus: Infinite (XTrivialResonant) vs spectral Zero" in \
        result.stderr


def test_solve_left_invariant_json(runner):
    result = runner.invoke(main, ["solve", "--metric", "left_invariant:1,2",
                                  "--structure", "-+"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert payload["solver"] == "left_invariant"
    assert payload["ratio"] == "1/2"
    # (1-a1) q + (1-a2) p = 2*2 = 4 = 0 mod 4: solvable
    assert payload["count_class"] == "Infinite"
    assert all(f["residual"] < 1e-9 for f in payload["fields"])


@pytest.mark.parametrize("metric,n_fields", [("left_invariant:1,2", 4),
                                              ("closed_diagonal:sqrt2,1", 1)])
def test_solve_honours_grid_n(runner, metric, n_fields):
    """The fields of a solve are built and checked on the requested grid,
    and the payload names it (also the constant field of a dense flow)."""
    result = runner.invoke(main, ["solve", "--metric", metric,
                                  "--grid-n", "256"])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert payload["grid_n"] == 256 and len(payload["fields"]) == n_fields
    assert all(f["residual"] < 1e-9 for f in payload["fields"])


@pytest.mark.parametrize("metric,chirality,direction", [
    ("left_invariant:1,2", "1", "X"), ("analex", "1", "X"),
    ("closed_diagonal:3,5,amp=0.2,k=4,l=-6", "-1", "X")])
def test_a_solve_builds_one_operator(runner, monkeypatch, metric, chirality,
                                     direction):
    """The residuals of a 4-field solve share one transport operator: the
    harmonic one along X for chirality +1, the twistor one, also along X,
    for chirality -1."""
    operators = count_operator_builds(monkeypatch)
    result = runner.invoke(main, ["solve", "--metric", metric,
                                  "--chirality", chirality, "--grid-n", "64"])
    payload = _json_out(result)
    assert result.exit_code == 0 and len(payload["fields"]) == 4
    assert operators == [direction]


# ---------------------------------------------------------------------------
# exit codes


def test_wrong_family_is_exit_one(runner):
    result = runner.invoke(main, ["solve", "--metric", "rosatau"])
    payload = _json_out(result)
    assert result.exit_code == 1
    assert payload["status"] == "error"
    assert payload["error"] == "WrongFamily"
    assert "RosaTau" in payload["message"]


def test_inconclusive_is_exit_two_with_evidence(runner):
    # rotation 99/100 is rational but beyond the decomposition's period cap
    result = runner.invoke(main, ["decompose", "--metric",
                                  "left_invariant:99,100"])
    payload = _json_out(result)
    assert result.exit_code == 2
    assert payload["status"] == "inconclusive"
    assert payload["error"] == "Inconclusive"
    assert payload["measured"] == 100.0
    assert payload["band"] == [1.0, 64.0]


def test_config_errors_are_exit_one(runner, tmp_path):
    def config(command, **doc):
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"metric": "flat", **doc}))
        return [command, "--config", str(path)]

    cases = [
        ["flow", "--metric", "flat", "--from", "1;2"],
        ["solve", "--metric", "flat", "--structure", "2,5"],
        ["rotation", "--metric", "no_such_metric"],
        ["rotation", "--metric", "flat", "--tol", "warp_factor=9"],
        ["rotation", "--metric", "flat", "--tol", "fd_step=1e-3"],
        ["rotation", "--metric", "flat", "--tol", "algebraic=1e-12"],
        ["rotation", "--metric", "flat", "--step", "7"],
        ["rotation", "--metric", "flat", "--format", "csv"],
        ["solve"],
        config("decompose", resolution="many"),
        config("table", quantitiy="delta_plus"),
        config("rotation", step="tiny"),
        config("rotation", grid_n="fine"),
        config("flow", tmax="long"),
        config("flow", **{"from": ["a", 0]}),
        config("holonomy", seed_w="middle"),
        config("solve", chirality="plus"),
        config("solve", chirality=2),
        config("validate", criterion="first"),
        config("validate", criterion=99),
        ["validate", "--criterion", "0"],
        config("classify", quantity="delta_zero"),
        config("table", quantity="delta_zero"),
        # malformed metrics: unknown, missing or stray parameters,
        # non-numeric values and unknown families
        ["solve", "--metric", '{"family":"closed_diagonal","params":'
         '{"base1":1,"base2":2,"ampl":0.3}}'],
        ["solve", "--metric", '{"family":"closed_diagonal","params":{}}'],
        ["table", "--metric", '{"family":"conformal_rescale"}'],
        ["rotation", "--metric", "rosatau:0.25"],
        ["rotation", "--metric", "flat:3"],
        ["rotation", "--metric", '{"family":"rosatau","params":{"zero":"a"}}'],
        ["rotation", "--metric", '{"family":"no_such_family"}'],
        ["rotation", "--metric", '{"family":'],
        ["rotation", "--metric", str(tmp_path / "no_such_metric.json")],
        # a document's own grid_n is range-checked; this flow command
        # builds no grid, so an unchecked value would simply run
        ["solve", "--metric", '{"family":"analex","grid_n":0}'],
        ["rotation", "--metric", '{"family":"flat","grid_n":5000}'],
        ["rotation", "--metric", '{"family":"conformal_rescale","params":'
         '{"inner":{"family":"flat","grid_n":5000}}}'],
        config("rotation", metric=5),
    ] + [config(command, family="Z") for command in (
        "flow", "rotation", "classify-line", "decompose", "holonomy")]
    # a count that is a bool or not integral is refused, not truncated;
    # so is a real that is a bool
    counts = [
        ("grid_n", ["solve", "--metric",
                    '{"family":"analex","grid_n":32.9}']),
        ("grid_n", ["solve", "--metric", '{"family":"analex","grid_n":true}']),
        ("n_fields", config("solve", n_fields=10.5)),
        ("chirality", config("solve", chirality=-1.5)),
        # wavenumbers are counts too: a non-integral one is no torus metric
        ("k", ["rotation", "--metric", "closed_diagonal:1,2,k=0.5"]),
        ("l", ["rotation", "--metric", "closed_diagonal:1,2,l=1.5"]),
        ("k", ["rotation", "--metric", "closed_diagonal:1,2,k=1/2"]),
        ("k", ["rotation", "--metric", '{"family":"conformal_rescale",'
               '"params":{"inner":{"family":"analex"},"factor":{"k":0.5}}}']),
        # and a real is a number, never a bool
        ("c", ["rotation", "--metric",
               '{"family":"analex","params":{"c":true}}']),
        ("tmax", config("flow", tmax=True)),
        ("seed_w", config("holonomy", seed_w=True)),
        # a left-invariant coefficient is kept exact, but never a bool
        ("lam1", ["rotation", "--metric", '{"family":"left_invariant",'
                  '"params":{"lam1":true,"lam2":2}}']),
        # tolerances follow the same two rules, and the step its range
        ("bisection", config("rotation", tol={"bisection": True})),
        ("rational_cap", config("rotation", tol={"rational_cap": 50.5})),
        ("ode_step", ["table", "--metric", "flat", "--tol", "ode_step=0"]),
        ("ode_step", ["rotation", "--metric", "flat",
                      "--tol", "ode_step=-0.001"]),
        # every real tolerance is finite and positive, a cap at least 1:
        # resonance=-1 used to answer Dense for the all-resonant flat flow,
        # rational_cap=0 to end in a limit_denominator traceback
        ("resonance", ["decompose", "--metric", "flat",
                       "--tol", "resonance=-1"]),
        ("rational_cap", ["rotation", "--metric", "left_invariant:sqrt2,1",
                          "--tol", "rational_cap=0"]),
        ("bisection", config("rotation", tol={"bisection": 0})),
        ("scf_reject", ["rotation", "--metric", "flat",
                        "--tol", "scf_reject=nan"]),
        ("closedness", ["rotation", "--metric", "flat",
                        "--tol", "closedness=inf"]),
    ]
    for args in cases + [args for _, args in counts]:
        result = runner.invoke(main, args)
        payload = _json_out(result)
        assert result.exit_code == 1, args
        assert payload["error"] == "ConfigError", args
    for key, args in counts:
        assert key in _json_out(runner.invoke(main, args))["message"], args
    # an integral float is an integer
    at_64 = [runner.invoke(main, ["solve", "--n-fields", "1", "--metric",
                                  f'{{"family":"analex","grid_n":{n}}}'])
             for n in ("64", "64.0")]
    assert at_64[0].exit_code == at_64[1].exit_code == 0
    assert at_64[0].output == at_64[1].output


@pytest.mark.parametrize("command", ["flow", "rotation", "classify-line",
                                     "decompose", "holonomy"])
def test_flow_commands_take_no_grid_n(runner, command):
    result = runner.invoke(main, [command, "--metric", "flat",
                                  "--grid-n", "64"])
    assert result.exit_code == 2
    assert "No such option" in result.output


# ---------------------------------------------------------------------------
# configuration precedence


def test_grid_n_overrides_the_metric_document(runner, tmp_path):
    """--grid-n, or the run config's grid_n, beats a JSON metric's own
    grid_n; without either the document's value stands."""
    def solve(*args):
        result = runner.invoke(main, ["solve", "--n-fields", "1", *args])
        assert result.exit_code == 0, result.output
        return result.output

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"metric": {"family": "analex"}, "grid_n": 32}))
    at_32 = solve("--metric", "analex", "--grid-n", "32")
    assert solve("--metric", '{"family":"analex"}', "--grid-n", "32") == at_32
    assert solve("--metric", '{"family":"analex","grid_n":64}',
                 "--grid-n", "32") == at_32
    assert solve("--config", str(cfg)) == at_32
    assert solve("--metric", '{"family":"analex","grid_n":32}') == at_32
    assert solve("--metric", '{"family":"analex","grid_n":64}') != at_32
    # a nested inner config keeps its own grid
    spec = catalog.load_metric({"family": "conformal_rescale", "params": {
        "inner": {"family": "analex", "grid_n": 48}}}, grid_n=32)
    assert (spec.grid_n, spec.inner.grid_n) == (32, 48)


def test_config_file_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "metric": "left_invariant:1,2",
        "structure": "+-",
        "tol": {"rational_cap": 50},
    }))
    # file alone supplies metric, structure, and the tolerance override
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    payload = _json_out(result)
    assert result.exit_code == 0
    assert payload["structure"] == "(+1,-1)"
    assert payload["tolerances"]["rational_cap"] == 50

    # flags beat the file
    result = runner.invoke(main, ["solve", "--config", str(cfg),
                                  "--structure", "trivial",
                                  "--tol", "rational_cap=70"])
    payload = _json_out(result)
    assert payload["structure"] == "(+1,+1)"
    assert payload["tolerances"]["rational_cap"] == 70


def test_config_keys_no_command_reads_are_refused(runner, tmp_path):
    """One document may drive several commands, so a key of another
    command is accepted; a key that no command reads (the decompose
    resolution that went with the section scan, or a typo) is a
    ConfigError naming it, not a silent default."""
    def run(command, **doc):
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"metric": "flat", **doc}))
        return runner.invoke(main, [command, "--config", str(path)])

    shared = run("rotation", n_fields=1, tmax=2.0, quantity="delta_plus",
                 output=None, format="json", tol={})
    assert shared.exit_code == 0, shared.output
    for key in ("resolution", "quantitiy", "config"):
        result = run("table", **{key: 1})
        assert result.exit_code == 1
        refused = _json_out(result)
        assert refused["error"] == "ConfigError"
        assert refused["message"] == ("no command reads the config key "
                                      f"{key!r}")


def test_tol_override_lands_in_artifact(runner):
    result = runner.invoke(main, ["rotation", "--metric", "flat",
                                  "--tol", "ode_step=0.002"])
    payload = _json_out(result)
    assert payload["tolerances"]["ode_step"] == 0.002
    # --step sets the same tolerance, so the artifact names the step once,
    # in its tolerances block
    payload = _json_out(runner.invoke(main, ["rotation", "--metric", "flat",
                                             "--step", "0.002"]))
    assert payload["tolerances"]["ode_step"] == 0.002
    assert "step" not in payload


def test_scf_accept_is_no_longer_a_tolerance(runner):
    """The loop-integral acceptance threshold went with the loop test: an
    artifact no longer reports it, and overriding it is a config error."""
    payload = _json_out(runner.invoke(main, ["rotation", "--metric", "flat"]))
    assert "scf_accept" not in payload["tolerances"]
    assert "scf_reject" in payload["tolerances"]
    result = runner.invoke(main, ["rotation", "--metric", "flat",
                                  "--tol", "scf_accept=1e-8"])
    assert result.exit_code == 1
    refused = _json_out(result)
    assert refused["error"] == "ConfigError"
    assert "unknown tolerance 'scf_accept'" in refused["message"]


def test_output_file_and_json_format(runner, tmp_path):
    out = tmp_path / "table.json"
    result = runner.invoke(main, ["table", "--metric", "left_invariant:1,1",
                                  "--format", "json", "-o", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "a1"
    assert len(doc["rows"]) == 4
    assert "tolerances" in doc


def test_group_level_options_apply(runner, tmp_path):
    out = tmp_path / "rot.json"
    result = runner.invoke(main, ["-o", str(out), "rotation",
                                  "--metric", "flat"])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the validate command


def test_validate_single_criterion(runner):
    result = runner.invoke(main, ["validate", "--criterion", "6"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["command"] == "validate"
    assert payload["passed"] == 1 and payload["failed"] == 0
    criterion = payload["criteria"][0]
    assert criterion["index"] == 6
    assert criterion["passed"] is True
    assert "criterion  6: PASS" in result.stderr


def test_json_command_refuses_csv_before_it_runs(runner, monkeypatch):
    """validate --format csv is refused before the criterion runs."""
    def never(*args, **kwargs):
        raise AssertionError("the criterion ran")

    monkeypatch.setattr(validation, "run_criterion", never)
    monkeypatch.setattr(validation, "run_all", never)
    for args in (["validate", "--criterion", "5", "--format", "csv"],
                 ["--format", "csv", "validate"]):
        result = runner.invoke(main, args)
        payload = _json_out(result)
        assert result.exit_code == 1, result.output
        assert payload["error"] == "ConfigError"
        assert "csv format is not available" in payload["message"]


# ---------------------------------------------------------------------------
# cold start

SRC = Path(__file__).resolve().parents[1] / "src"

#: run in a fresh interpreter: the analytic commands never load scipy, and
#: the numeric rescaling route loads LSQR when it calls it
IMPORT_PATH_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])

import nulltorus.cli
assert "scipy" not in sys.modules, "import nulltorus.cli"

from click.testing import CliRunner
for argv in (["table", "--metric", "analex",
              "--quantity", "delta_plus,tau_minus"],
             ["holonomy", "--metric", "closed_diagonal:5,8"]):
    result = CliRunner().invoke(nulltorus.cli.main, argv)
    assert result.exit_code == 0, result.output
    assert "scipy" not in sys.modules, argv[0]

import numpy as np
from nulltorus import classify, geometry
f = lambda x1, x2: np.exp(0.15 * np.sin(2 * np.pi * x1)
                          * np.sin(2 * np.pi * x2))
spec = geometry.Diagonal(lam1=f, lam2=f, grid_n=128)
cert = classify.semi_conformal_certificate(spec, "X", grid_n=32)
assert "scipy.sparse.linalg" in sys.modules
print(cert.kind)
"""


def test_scipy_loads_only_for_the_rescaling_solve():
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT,
                           str(SRC)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rescaling"]
