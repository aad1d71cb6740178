import json
import math
import time

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    InvalidState,
    PairGeometry,
    Recipe,
    build_scheme,
    commutator_norm,
    coplanar_triple_directions,
    eigenvalues_hermitian,
    monotone,
    observable_from_direction,
    pair_entries,
    symmetrized_product,
)
from pseudoprob import cli
from pseudoprob.cli import main
from pseudoprob.tolerances import CLASSICALITY_EPS, COMMUTATOR_CUTOFF, NEGATIVE_EIG_CUTOFF

import oracles

S2 = math.sqrt(2.0)
COPLANAR_OBSERVABLES = [observable_from_direction(m) for m in coplanar_triple_directions()]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stderr of a call that argparse ends with exit code 2, after checking
    that it printed the subcommand's usage line and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: pseudoprob {argv[0]} ")
    return captured.err


class TestScheme:
    def test_coplanar_weyl_json(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "coplanar120", "--recipe", "weyl"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["recipe"] == "weyl"
        assert obj["classical"] is False
        values = {tuple(e["a"]): e["p"] for e in obj["entries"]}
        assert values[(1, 1, 1)] == pytest.approx(-1 / 16, abs=1e-12)
        assert values[(-1, -1, -1)] == pytest.approx(-1 / 16, abs=1e-12)
        assert obj["negativity"] == pytest.approx(0.125, abs=1e-12)

    def test_axis_tokens_mixed_state(self, capsys):
        code, out, _ = run(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "x", "y")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["entries"]) == 8
        for e in obj["entries"]:
            assert e["p"] == pytest.approx(0.125, abs=1e-12)
        assert obj["classical"] is True

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "--bloch", "0,0,1", "--dirs", "z", "x", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a1,a2,p"
        assert lines[1].startswith("1,1,")
        assert float(lines[1].split(",")[2]) == pytest.approx(0.5, abs=1e-12)
        assert lines[-2] == "# negativity=0"
        assert lines[-1] == "# classical=true"

    def test_vector_token_and_weights_recipe(self, capsys):
        code, out, _ = run(
            capsys,
            "scheme",
            "--bloch", "0.3,0,0.4",
            "--dirs", "coplanar120",
            "--recipe", "0.2,0.3,0.5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["recipe"] == {"weights": [0.2, 0.3, 0.5]}
        assert sum(e["p"] for e in obj["entries"]) == pytest.approx(1.0, abs=1e-10)

    def test_unit_recipe_differs_from_weyl_when_polarized(self, capsys):
        _, weyl_out, _ = run(
            capsys, "scheme", "--bloch", "0.6,0,0.4", "--dirs", "coplanar120",
            "--recipe", "weyl",
        )
        _, unit_out, _ = run(
            capsys, "scheme", "--bloch", "0.6,0,0.4", "--dirs", "coplanar120",
            "--recipe", "unit:0",
        )
        weyl_vals = [e["p"] for e in json.loads(weyl_out)["entries"]]
        unit_vals = [e["p"] for e in json.loads(unit_out)["entries"]]
        assert max(abs(a - b) for a, b in zip(weyl_vals, unit_vals)) > 1e-3

    def test_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"bloch": [0, 0, 1]}))
        code, out, _ = run(capsys, "scheme", "--state", str(path), "--dirs", "z", "x")
        assert code == 0
        values = {tuple(e["a"]): e["p"] for e in json.loads(out)["entries"]}
        assert values[(1, 1)] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "bloch, code", [([0, 0, 0], 0), ([0.3, -0.2, 0.5], 0), ([-0.5, 0, 0], 0), ([1, 1, 0], 3)]
    )
    def test_bloch_flag_and_bloch_state_file_agree(self, capsys, tmp_path, bloch, code):
        # --bloch goes straight to density_from_bloch; a file goes through the JSON reader
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"bloch": bloch}))
        flag = "--bloch=" + ",".join(str(x) for x in bloch)
        from_flag = run(capsys, "scheme", flag, "--dirs", "coplanar120")
        from_file = run(capsys, "scheme", "--state", str(path), "--dirs", "coplanar120")
        assert from_flag == from_file and from_flag[0] == code

    def test_dirs_file(self, capsys, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([{"m": [0, 0, 1]}, {"m": [2, 0, 0]}]))
        code, out, _ = run(capsys, "scheme", "--bloch", "0,0,0", "--dirs-file", str(path))
        assert code == 0
        assert len(json.loads(out)["entries"]) == 4

    def test_rho_state_file(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(
            json.dumps({"rho": {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}})
        )
        code, out, _ = run(capsys, "scheme", "--state", str(path), "--dirs", "z")
        assert code == 0
        values = [e["p"] for e in json.loads(out)["entries"]]
        assert values == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scheme.json"
        code, out, _ = run(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["classical"] is True


class TestSchemeErrors:
    def test_missing_state_is_usage_error(self, capsys):
        err = usage_error(capsys, "scheme", "--dirs", "z")
        assert "error" in err

    def test_malformed_state_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        err = usage_error(capsys, "scheme", "--state", str(path), "--dirs", "z")
        assert "cannot read JSON" in err

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--state", 5), ("--state", {"rho": 5}), ("--state", {"rho": {"dim": 2}}),
            ("--state", [0, 0, 1]), ("--state", {"bloch": {"x": 1}}),
            ("--state", {"rho": {"dim": 2, "re": [[1, {}], [0, 0]], "im": [[0, 0], [0, 0]]}}),
            ("--state", {"bloch": ["0.5", 0, 0]}), ("--state", {"bloch": None}),
            ("--state", {"bloch": [True, 0, 0]}),
            ("--state", {"rho": {"dim": 2.7, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}}),
            ("--dirs-file", [5]), ("--dirs-file", [{"m": {"x": 1}}]),
            ("--dirs-file", [{"m": ["1", 0, 0]}]), ("--dirs-file", [{"m": [[1, 0], [0]]}]),
        ],
        ids=repr,
    )
    def test_json_of_the_wrong_shape_is_one_domain_error(self, capsys, tmp_path, flag, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        given = ["--state", str(path)] if flag == "--state" else ["--bloch", "0,0,0"]
        rest = ["--dirs", "z"] if flag == "--state" else ["--dirs-file", str(path)]
        code, out, err = run(capsys, "scheme", *given, *rest)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unphysical_bloch_is_domain_error(self, capsys):
        code, _, err = run(capsys, "scheme", "--bloch", "1,1,0", "--dirs", "z", "x")
        assert code == 3 and "unphysical-bloch" in err

    def test_unit_index_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "x", "--recipe", "unit:5"
        )
        assert code == 3 and "invalid-recipe" in err

    def test_too_many_directions(self, capsys):
        code, _, err = run(
            capsys, "scheme", "--bloch", "0,0,0",
            "--dirs", "z", "x", "y", "0,0,1", "1,1,0", "1,0,1", "0,1,1", "1,2,3", "3,2,1",
        )
        assert code == 3 and "ordering-explosion" in err

    def test_bloch_of_two_components_is_usage_error(self, capsys):
        err = usage_error(capsys, "scheme", "--bloch", "1,2", "--dirs", "z")
        assert err.endswith("error: argument --bloch: expected 3 components, got 2\n")

    def test_unit_index_that_is_not_an_integer_is_usage_error(self, capsys):
        err = usage_error(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--recipe", "unit:x")
        assert err.endswith(
            "error: argument --recipe: expected 'weyl', 'unit:K' or comma-separated weights,"
            " got 'unit:x'\n"
        )

    def test_bad_direction_token(self, capsys):
        usage_error(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "north")

    def test_dirs_and_dirs_file_together_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([{"m": [0, 0, 1]}]))
        err = usage_error(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--dirs-file", str(path)
        )
        assert "argument --dirs-file: not allowed with argument --dirs" in err

    def test_no_directions_is_usage_error(self, capsys):
        err = usage_error(capsys, "scheme", "--bloch", "0,0,0")
        assert "one of the arguments --dirs --dirs-file is required" in err

    def test_dirs_file_holding_an_object_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps({"m": [0, 0, 1]}))
        err = usage_error(capsys, "scheme", "--bloch", "0,0,0", "--dirs-file", str(path))
        assert "--dirs-file must hold a JSON list" in err

    def test_nan_weights_are_domain_error(self, capsys):
        code, out, err = run(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--recipe", "nan,1"
        )
        assert code == 3 and out == ""
        assert err == "error: invalid-convex-weights: weights must be non-negative\n"

    def test_nan_bloch_is_domain_error(self, capsys):
        code, out, err = run(capsys, "scheme", "--bloch", "nan,0,0", "--dirs", "z")
        assert code == 3 and out == ""
        assert err == "error: unphysical-bloch: |P| = nan exceeds 1\n"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1e-10"])
    @pytest.mark.parametrize("command", [
        ["scheme", "--bloch", "0,0,0", "--dirs", "coplanar120"],
        ["scan-negativity", "--pnorm", "1", "--steps", "3"],
        ["classical-region", "--family", "free-pair", "--samples", "10"],
    ])
    def test_eps_that_is_not_finite_and_non_negative_is_usage_error(self, capsys, command, eps):
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--eps={eps}"])
        assert exc.value.code == 2
        assert "--eps: eps must be a finite number >= 0" in capsys.readouterr().err

    def test_eps_that_is_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scheme", "--bloch", "0,0,0", "--dirs", "z", "--eps", "small"])
        assert exc.value.code == 2
        assert "could not convert string to float" in capsys.readouterr().err

    def test_zero_eps_is_valid(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "--bloch", "0,0,0", "--dirs", "coplanar120", "--eps", "0"
        )
        assert code == 0
        assert json.loads(out)["classical"] is False


class TestScanNegativity:
    def test_rows_and_values(self, capsys):
        code, out, _ = run(
            capsys,
            "scan-negativity",
            "--pnorm", "1",
            "--theta-min", str(math.pi / 2),
            "--theta-max", str(2 * math.pi / 3),
            "--steps", "2",
            "--deterministic",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "scan-negativity"
        assert obj["rows"][0]["negativity"] == pytest.approx((S2 - 1) / 4, abs=1e-12)
        assert obj["rows"][1]["negativity"] == pytest.approx(0.125, abs=1e-12)

    def test_mixed_state_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "scan-negativity", "--pnorm", "0", "--steps", "50", "--deterministic"
        )
        assert code == 0
        assert all(row["negativity"] == 0.0 for row in json.loads(out)["rows"])

    def test_csv_full_precision(self, capsys):
        code, out, _ = run(
            capsys,
            "scan-negativity",
            "--pnorm", "0.8",
            "--theta-min", str(math.pi / 2),
            "--theta-max", str(3 * math.pi / 4),
            "--steps", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,negativity"
        theta, value = lines[1].split(",")
        expected = 0.5 * (0.8 * math.cos(math.pi / 4) - math.cos(math.pi / 4) ** 2)
        assert value == format(expected, ".17g")
        assert float(theta) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_range_clipped_with_warning(self, capsys):
        code, out, err = run(
            capsys,
            "scan-negativity",
            "--pnorm", "1",
            "--theta-min", "-1",
            "--theta-max", "4",
            "--steps", "3",
        )
        assert code == 0
        assert "clipped" in err
        rows = json.loads(out)["rows"]
        assert 0 < rows[0]["theta"] < rows[-1]["theta"] < math.pi

    def test_degrees_flag(self, capsys):
        _, out_deg, _ = run(
            capsys,
            "scan-negativity",
            "--pnorm", "1",
            "--theta-min", "90", "--theta-max", "120", "--steps", "2",
            "--degrees", "--deterministic",
        )
        _, out_rad, _ = run(
            capsys,
            "scan-negativity",
            "--pnorm", "1",
            "--theta-min", str(math.pi / 2), "--theta-max", str(2 * math.pi / 3),
            "--steps", "2", "--deterministic",
        )
        deg_rows = json.loads(out_deg)["rows"]
        rad_rows = json.loads(out_rad)["rows"]
        for a, b in zip(deg_rows, rad_rows):
            assert a["negativity"] == pytest.approx(b["negativity"], abs=1e-12)

    def test_steps_too_small(self, capsys):
        usage_error(capsys, "scan-negativity", "--pnorm", "1", "--steps", "1")

    def test_theta_max_below_theta_min_is_usage_error(self, capsys):
        err = usage_error(
            capsys, "scan-negativity", "--pnorm", "1", "--theta-min", "2", "--theta-max", "1"
        )
        assert "--theta-max must not be below --theta-min" in err

    def test_bad_pnorm_is_domain_error(self, capsys):
        code, _, err = run(capsys, "scan-negativity", "--pnorm", "1.5", "--steps", "3")
        assert code == 3


class TestClassicalRegion:
    def test_orthogonal_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "classical-region",
            "--family", "orthogonal-pair",
            "--samples", "4000",
            "--seed", "7",
            "--deterministic",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["critical_radius"] == pytest.approx(1 / S2, abs=1e-9)
        assert row["radius_fraction"] == row["critical_radius"]
        # true volume fraction is 2^(-3/2) ~ 0.3536
        assert row["euclidean_volume_fraction"] == pytest.approx(
            0.35355, abs=5 * row["euclidean_volume_fraction_se"] + 1e-3
        )

    def test_orthogonal_triple(self, capsys):
        code, out, _ = run(
            capsys,
            "classical-region",
            "--family", "orthogonal-triple",
            "--samples", "1000",
            "--deterministic",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["critical_radius"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_free_pair_fraction_approaches_one(self, capsys):
        code, out, _ = run(
            capsys,
            "classical-region",
            "--family", "free-pair",
            "--samples", "2000",
            "--deterministic",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["nonclassical_fraction"] >= 0.99

    @pytest.mark.parametrize("grid", [1, 2, 7, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_free_pair_equals_the_loop_over_every_grid_point(self, capsys, seed, grid):
        # the reference sweeps the aligned geometry over the whole theta
        # grid, one PairGeometry per point, from the same draw
        pnorms = np.linalg.norm(cli._sample_ball(np.random.default_rng(seed), 3000), axis=1)
        pvecs = np.zeros((pnorms.size, 3))
        pvecs[:, 2] = pnorms
        thetas = np.pi * np.arange(1, grid + 1) / (grid + 1)
        worst = np.full(pnorms.size, np.inf)
        for theta in thetas:
            g = PairGeometry.aligned(0.0, float(theta))
            worst = np.minimum(worst, pair_entries(pvecs, g.m1, g.m2).min(axis=-1))
        for eps in (0.0, 1e-10, 1e-3, 0.02, 0.05, 0.1, 0.2):
            code, out, _ = run(
                capsys, "classical-region", "--family", "free-pair", "--samples", "3000",
                "--seed", str(seed), "--theta-grid", str(grid), "--eps", str(eps),
            )
            assert code == 0
            expected = float((worst < -eps)[pnorms > 0].mean())
            assert json.loads(out)["rows"][0]["nonclassical_fraction"] == expected

    def test_zero_samples_rejected_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classical-region", "--family", "orthogonal-pair", "--samples", "0"])
        assert exc.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "classical-region",
            "--family", "orthogonal-pair",
            "--samples", "100",
            "--format", "csv",
            "--deterministic",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("family,samples,critical_radius")
        assert len(lines) == 2


class TestSpectrum:
    def test_qubit_rank_one_pairs(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--dim", "2", "--ranks", "1,1", "--pairs", "300",
            "--seed", "3", "--deterministic",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["violations"] == 0
        assert obj["summary"]["pairs"] == 300
        for row in obj["rows"]:
            if row["commutator_norm"] > 1e-6:
                assert row["min_eig"] < 0

    def test_higher_dim_ranks(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--dim", "4", "--ranks", "2,1", "--pairs", "200", "--deterministic",
        )
        assert code == 0
        assert json.loads(out)["summary"]["violations"] == 0

    def test_dim_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--dim", "1", "--ranks", "1,1"])
        assert exc.value.code == 2

    def test_bad_ranks(self, capsys):
        usage_error(capsys, "spectrum", "--dim", "2", "--ranks", "3,1")

    @pytest.mark.parametrize("ranks", ["2.7,1", "nan,1"])
    def test_ranks_that_are_not_integers_are_usage_errors(self, capsys, ranks):
        err = usage_error(capsys, "spectrum", "--dim", "4", "--ranks", ranks, "--pairs", "3")
        assert "--ranks: expected comma-separated integers" in err

    def test_csv_summary_comments(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--dim", "2", "--ranks", "1,1", "--pairs", "10",
            "--format", "csv", "--deterministic",
        )
        assert code == 0
        assert "# violations=0" in out

    def test_lapack_failure_is_one_domain_error(self, capsys, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, "spectrum", "--dim", "3", "--ranks", "1,2", "--pairs", "5")
        assert (code, out) == (3, "")
        assert err == "error: eig-no-convergence: Eigenvalues did not converge\n"

    @pytest.mark.parametrize(
        "dim, ranks, pairs, seed",
        [(2, (1, 1), 300, 3), (4, (2, 1), 1000, 7), (9, (9, 9), 40, 1), (16, (8, 3), 100, 5),
         (5, (2, 3), 1, 11)],
    )
    def test_rows_equal_the_per_pair_reference(self, capsys, dim, ranks, pairs, seed):
        # every pair built on its own, in draw order, from the same generator:
        # the stacked pass does the same arithmetic, so the rows are equal
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(pairs):
            p1, p2 = (HermitianOperator(oracles.haar_projector(rng, dim, r)) for r in ranks)
            comm = commutator_norm(p1, p2)
            assert comm == np.abs(p1.matrix @ p2.matrix - p2.matrix @ p1.matrix).max()
            min_eig = float(eigenvalues_hermitian(symmetrized_product(p1, p2))[0])
            rows.append({"pair": i, "min_eig": min_eig, "commutator_norm": comm})
        argv = [
            "spectrum", "--dim", str(dim), "--ranks", f"{ranks[0]},{ranks[1]}",
            "--pairs", str(pairs), "--seed", str(seed), "--deterministic",
        ]
        code, out, _ = run(capsys, *argv)
        obj = json.loads(out)
        assert code == 0 and obj["rows"] == rows
        noncommuting = [r for r in rows if r["commutator_norm"] > COMMUTATOR_CUTOFF]
        violations = [r for r in noncommuting if r["min_eig"] >= -NEGATIVE_EIG_CUTOFF]
        assert obj["summary"] == {
            "pairs": pairs, "noncommuting": len(noncommuting), "violations": len(violations),
        }
        code, out, _ = run(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert lines[1:-2] == [
            f"{r['pair']},{r['min_eig']:.17g},{r['commutator_norm']:.17g}" for r in rows
        ]
        assert lines[-2:] == [
            f"# noncommuting={len(noncommuting)}", f"# violations={len(violations)}",
        ]


class TestEntanglement:
    def test_bell(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", str(math.pi / 4))
        assert code == 0
        obj = json.loads(out)
        assert obj["monotone"] == pytest.approx(1.0, abs=1e-12)
        assert obj["reduced_bloch_norm"] == pytest.approx(0.0, abs=1e-12)

    def test_product(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["monotone"] == pytest.approx(0.0, abs=1e-12)
        assert obj["n_max_reduced"] == pytest.approx(0.125, abs=1e-12)

    def test_eighth_turn(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", str(math.pi / 8))
        assert code == 0
        assert json.loads(out)["monotone"] == pytest.approx(0.5, abs=1e-12)

    def test_degrees(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", "45", "--degrees")
        assert code == 0
        assert json.loads(out)["monotone"] == pytest.approx(1.0, abs=1e-12)

    def test_state_file(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        s = 1 / math.sqrt(2)
        path.write_text(json.dumps({"amps_re": [s, 0, 0, s], "amps_im": [0, 0, 0, 0]}))
        code, out, _ = run(capsys, "entanglement", "--state", str(path))
        assert code == 0
        assert json.loads(out)["monotone"] == pytest.approx(1.0, abs=1e-12)

    def test_unnormalised_state_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amps_re": [1, 1, 0, 0], "amps_im": [0, 0, 0, 0]}))
        code, _, err = run(capsys, "entanglement", "--state", str(path))
        assert code == 3 and "invalid-state" in err

    def test_schmidt_alpha_and_state_together_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text(json.dumps({"schmidt_alpha": 0.1}))
        err = usage_error(
            capsys, "entanglement", "--schmidt-alpha", "0.1", "--state", str(path)
        )
        assert "argument --state: not allowed with argument --schmidt-alpha" in err

    def test_nan_schmidt_alpha_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "entanglement", "--schmidt-alpha", "nan")
        assert code == 3 and out == ""
        assert err.startswith("error: invalid-state: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, angle", [
        (["--schmidt-alpha", "inf"], "inf"),
        (["--schmidt-alpha=-inf"], "-inf"),
        (["--degrees", "--schmidt-alpha", "inf"], "inf"),
    ])
    def test_infinite_schmidt_alpha_is_one_invalid_state_line(self, capsys, argv, angle):
        code, out, err = run(capsys, "entanglement", *argv)
        assert code == 3 and out == ""
        assert err == f"error: invalid-state: Schmidt angle {angle} is not a finite number\n"

    def test_infinite_schmidt_alpha_in_state_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"schmidt_alpha": Infinity}')
        code, out, err = run(capsys, "entanglement", "--state", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: invalid-state: Schmidt angle") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            {"schmidt_alpha": None}, {"schmidt_alpha": [1]}, {"schmidt_alpha": "0.5"}, 5, [0.1],
            {"amps_re": [1, "a", 0, 0]}, {"amps_re": [1, 0, 0, 0], "amps_im": None},
        ],
        ids=repr,
    )
    def test_json_of_the_wrong_shape_is_one_domain_error(self, capsys, tmp_path, content):
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "entanglement", "--state", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_matches_json(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", str(math.pi / 8))
        assert code == 0
        obj = json.loads(out)
        code, out, _ = run(
            capsys, "entanglement", "--schmidt-alpha", str(math.pi / 8), "--format", "csv"
        )
        assert code == 0
        header, values = out.split("\n")[:2]
        assert out.endswith("\n") and out.count("\n") == 2
        assert header == "reduced_bloch_norm,n_max_reduced,monotone"
        # 17 significant digits give back the JSON floats exactly
        assert [float(v) for v in values.split(",")] == [obj[c] for c in header.split(",")]
        assert values.split(",")[2] == format(obj["monotone"], ".17g")


class TestNegativeValues:
    """A value that starts with '-' and a digit or '.' is not taken for an option."""

    def test_negative_bloch_component(self, capsys):
        code, out, _ = run(capsys, "scheme", "--bloch", "-0.5,0,0", "--dirs", "x", "z")
        assert code == 0
        assert run(capsys, "scheme", "--bloch=-0.5,0,0", "--dirs", "x", "z") == (0, out, "")
        values = {tuple(e["a"]): e["p"] for e in json.loads(out)["entries"]}
        assert values[(-1, 1)] == pytest.approx(0.375, abs=1e-12)

    def test_negative_direction_token(self, capsys, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([{"m": [-1, 0, 0]}, {"m": [0, 0, 1]}]))
        code, out, _ = run(capsys, "scheme", "--bloch", "0.3,0,0", "--dirs", "-1,0,0", "z")
        assert code == 0
        assert run(capsys, "scheme", "--bloch", "0.3,0,0", "--dirs-file", str(path)) == (
            0, out, "",
        )

    @pytest.mark.parametrize("value", ["-.5", "-1e-3", "-0.5"])
    def test_negative_angle(self, capsys, value):
        code, out, _ = run(capsys, "entanglement", "--schmidt-alpha", value)
        assert code == 0
        assert run(capsys, "entanglement", f"--schmidt-alpha={value}") == (0, out, "")

    def test_negative_eps_reads_as_its_value(self, capsys):
        err = usage_error(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--eps", "-1e-10")
        assert "argument --eps: eps must be a finite number >= 0" in err

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    def test_negative_non_finite_angle_is_one_invalid_state_line(self, capsys, value):
        code, out, err = run(capsys, "entanglement", "--schmidt-alpha", value)
        assert (code, out) == (3, "")
        assert err.startswith("error: invalid-state: ") and err.count("\n") == 1
        assert run(capsys, "entanglement", f"--schmidt-alpha={value}") == (code, out, err)

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_eps_reads_as_its_value(self, capsys, value):
        err = usage_error(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--eps", value)
        assert "argument --eps: eps must be a finite number >= 0" in err


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-negativity", "--pnorm", "0.7", "--steps", "25", "--deterministic"],
            [
                "classical-region", "--family", "orthogonal-pair",
                "--samples", "500", "--seed", "11", "--deterministic",
            ],
            ["spectrum", "--dim", "3", "--ranks", "1,2", "--pairs", "40", "--deterministic"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_timestamp_present_without_deterministic(self, capsys):
        _, out, _ = run(capsys, "scan-negativity", "--pnorm", "0.5", "--steps", "3")
        assert "timestamp" in json.loads(out)["metadata"]

    def test_timestamp_absent_with_deterministic(self, capsys):
        _, out, _ = run(
            capsys, "scan-negativity", "--pnorm", "0.5", "--steps", "3", "--deterministic"
        )
        assert "timestamp" not in json.loads(out)["metadata"]

    def test_seed_echoed_in_params(self, capsys):
        _, out, _ = run(
            capsys,
            "classical-region",
            "--family", "free-pair", "--samples", "50", "--seed", "42", "--deterministic",
        )
        assert json.loads(out)["params"]["seed"] == 42


class TestWorkBudgets:
    # Each count is checked against its bound before any work: at the bound
    # the parser accepts it, one past it is a usage error that returns at once.

    BOUNDS = [
        (["scan-negativity", "--pnorm", "1"], "--steps", cli.MAX_STEPS),
        (["classical-region", "--family", "orthogonal-pair"], "--samples", cli.MAX_SAMPLES),
        (["spectrum", "--dim", "4", "--ranks", "2,1"], "--pairs", cli.MAX_PAIRS),
        (
            ["classical-region", "--family", "free-pair", "--samples", "1"],
            "--theta-grid", cli.MAX_THETA_GRID,
        ),
    ]
    IDS = ["steps", "samples", "pairs", "theta-grid"]

    @pytest.mark.parametrize("argv, flag, most", BOUNDS, ids=IDS)
    def test_parser_accepts_the_bound(self, argv, flag, most):
        args = cli.build_parser().parse_args(argv + [flag, str(most)])
        assert getattr(args, flag[2:].replace("-", "_")) == most

    @pytest.mark.parametrize("argv, flag, most", BOUNDS, ids=IDS)
    def test_one_past_the_bound_fails_fast(self, capsys, argv, flag, most):
        t0 = time.perf_counter()
        err = usage_error(capsys, *argv, flag, str(most + 1))
        assert time.perf_counter() - t0 < 0.5
        assert f"argument {flag}: must be at most {most}, got {most + 1}" in err

    def test_theta_grid_is_only_bounded_where_it_is_swept(self, capsys):
        code, out, _ = run(
            capsys, "classical-region", "--family", "orthogonal-pair",
            "--samples", "10", "--theta-grid", str(cli.MAX_THETA_GRID),
        )
        assert code == 0 and "theta_grid_points" not in out

    def test_readme_counts_are_inside_their_budgets(self):
        # the README's largest counts: 181 steps, 10^5 samples, 10^4
        # free-pair samples over the default 128-point grid, 1000 pairs
        assert 181 <= cli.MAX_STEPS and 100_000 <= cli.MAX_SAMPLES
        assert 128 <= cli.MAX_THETA_GRID and 1000 <= cli.MAX_PAIRS


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scheme", "--bloch", "0,0,0", "--dirs", "z"],
            ["spectrum", "--dim", "2", "--ranks", "1,1", "--pairs", "3", "--format", "csv"],
        ],
        ids=["scheme", "spectrum"],
    )
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_one_usage_error_naming_the_path(self, capsys, tmp_path, argv, where):
        target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        err = usage_error(capsys, *argv, "--out", str(target))
        assert "Traceback" not in err and err.count("error:") == 1
        assert err.splitlines()[-1].startswith(f"pseudoprob {argv[0]}: error: cannot write {target}: ")

    def test_missing_directory_is_found_before_the_work(self, capsys, tmp_path):
        # the work would end in a domain error (exit 3): the usage error comes
        # first, and nothing is created
        target = tmp_path / "missing" / "x.json"
        err = usage_error(capsys, "scheme", "--bloch", "2,0,0", "--dirs", "z", "--out", str(target))
        assert err.splitlines()[-1] == (
            f"pseudoprob scheme: error: cannot write {target}: no directory {target.parent}"
        )
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_is_kept_when_the_work_fails(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("kept")
        argv = ["scheme", "--bloch", "2,0,0", "--dirs", "z", "--out", str(target)]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert target.read_text() == "kept"

    def test_bare_file_name_is_written_in_the_working_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "scheme", "--bloch", "0,0,0", "--dirs", "z", "--out", "x.json")
        assert code == 0 and out == ""
        assert json.loads((tmp_path / "x.json").read_text())["classical"] is True


class TestWireFormat:
    # the readers of --state and --dirs-file objects and the scheme writer

    def test_matrix_reads_re_and_im_exactly(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = HermitianOperator(0.5 * (z + z.conj().T))
        obj = json.loads(
            json.dumps({"dim": 3, "re": op.matrix.real.tolist(), "im": op.matrix.imag.tolist()})
        )
        assert np.array_equal(cli._read_matrix(obj).matrix, op.matrix)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError, match="matrix JSON shape does not match dim"):
            cli._read_matrix({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_matrix_dim_may_be_an_integral_float(self):
        obj = {"dim": 2.0, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(cli._read_matrix(obj).matrix, np.eye(2))

    @pytest.mark.parametrize("dim", ["2", True, None, [2]], ids=repr)
    def test_matrix_dim_that_is_not_a_number_names_the_key(self, dim):
        obj = {"dim": dim, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        with pytest.raises(ValueError, match='matrix JSON "dim" must hold a number'):
            cli._read_matrix(obj)

    def test_state_from_bloch(self):
        rho = cli._read_state({"bloch": [0, 0, 1]})
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_state_from_rho(self):
        obj = {"rho": {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}}
        assert np.array_equal(cli._read_state(obj).matrix, 0.5 * np.eye(2))

    def test_state_missing_keys(self):
        with pytest.raises(ValueError):
            cli._read_state({"psi": [1, 0]})

    def test_direction_json(self):
        m = cli._read_direction({"m": [0, 0, 5]})
        assert np.allclose(m, [0, 0, 1])
        with pytest.raises(ValueError):
            cli._read_direction({"n": [0, 0, 1]})

    def test_pure_state_amplitudes(self):
        psi = cli._read_pure_state({"amps_re": [1, 0, 0, 0], "amps_im": [0, 0, 0, 0]})
        assert np.allclose(psi.amplitudes, [1, 0, 0, 0])

    def test_pure_state_schmidt(self):
        psi = cli._read_pure_state({"schmidt_alpha": math.pi / 4})
        assert monotone(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_pure_state_rejects_non_finite_schmidt_angle(self, text):
        obj = json.loads(f'{{"schmidt_alpha": {text}}}')
        with pytest.raises(InvalidState, match="Schmidt angle"):
            cli._read_pure_state(obj)

    @pytest.mark.parametrize("im", [None, ["0", 0, 0, 0], [False, 0, 0, 0]], ids=repr)
    def test_pure_state_names_a_key_that_does_not_hold_numbers(self, im):
        with pytest.raises(ValueError, match='two-qubit state JSON "amps_im" must hold numbers'):
            cli._read_pure_state({"amps_re": [1, 0, 0, 0], "amps_im": im})

    def test_pure_state_missing_keys(self):
        with pytest.raises(ValueError):
            cli._read_pure_state({})

    def test_wire_format(self):
        scheme = build_scheme(DensityMatrix.maximally_mixed(2), COPLANAR_OBSERVABLES)
        obj = cli._scheme_json(scheme, CLASSICALITY_EPS)
        assert list(obj) == ["observables", "recipe", "entries", "negativity", "classical"]
        assert obj["recipe"] == "weyl"
        assert len(obj["entries"]) == 8
        assert obj["entries"][0]["a"] == [1, 1, 1]
        assert obj["entries"][0]["p"] == pytest.approx(-1 / 16, abs=1e-12)
        assert obj["classical"] is False
        assert obj["negativity"] == pytest.approx(0.125, abs=1e-12)

    def test_recipe_json_forms(self):
        assert cli._recipe_json(Recipe.weyl()) == "weyl"
        assert cli._recipe_json(Recipe.unit(2)) == {"unit": 2}
        assert cli._recipe_json(Recipe.convex((0.5, 0.5))) == {"weights": [0.5, 0.5]}

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-10])
    def test_scheme_writer_rejects_eps_that_is_not_finite_and_non_negative(self, eps):
        scheme = build_scheme(DensityMatrix.maximally_mixed(2), COPLANAR_OBSERVABLES)
        with pytest.raises(ValueError, match="eps must be a finite number"):
            cli._scheme_json(scheme, eps)

    def test_scheme_writer_takes_zero_eps(self):
        scheme = build_scheme(DensityMatrix.maximally_mixed(2), COPLANAR_OBSERVABLES)
        assert cli._scheme_json(scheme, 0.0)["classical"] is False
