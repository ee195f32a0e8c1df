import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from framekit import RunReport, SuitePlan, Tolerances, load_frame, save_frame
from framekit.cli import frame_from_dict, frame_to_dict, main
from framekit.gframe import GFrame
from framekit.gfusion import GFusionFrame


def run_cli(argv):
    return main(argv)


@pytest.fixture
def coordinate_frame_file(tmp_path, coordinate_gfusion):
    path = tmp_path / "coordinate.frame"
    save_frame(coordinate_gfusion, str(path))
    return str(path)


_COMPLEX_ENTRY_NOT_A_PAIR = json.dumps({"format_version": 1, "field": "complex", "dim_h": 1,
                                       "kind": "gframe", "components": [{"lambda": [[[1.0]]]}]})

@pytest.fixture(scope="module")
def dim64_frame_file(tmp_path_factory):
    """The dim-64 complex frame file of ``gen --seed 3``: 934 KiB."""
    path = tmp_path_factory.mktemp("dim64") / "l.frame"
    assert main(["gen", "--dim", "64", "--components", "64:64:1", "48:40:1.5", "32:64:0.75",
                 "16:8:2", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def _matrices(frame):
    if isinstance(frame, GFrame):
        return list(frame.blocks)
    return [m for c in frame.components for m in (c.basis, c.block)]


class TestFrameFiles:
    def test_gfusion_round_trip_bit_exact(self, tmp_path):
        ret = run_cli([
            "gen", "--dim", "3", "--components", "2:2:1", "2:2:1",
            "--seed", "1", "--out", str(tmp_path / "f.frame"),
        ])
        assert ret == 0
        frame = load_frame(str(tmp_path / "f.frame"))
        again = tmp_path / "g.frame"
        save_frame(frame, str(again))
        reloaded = load_frame(str(again))
        for c1, c2 in zip(frame.components, reloaded.components):
            assert np.array_equal(c1.basis, c2.basis)
            assert np.array_equal(c1.block, c2.block)
            assert c1.weight == c2.weight

    def test_gframe_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        frame = GFrame([
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        ])
        path = tmp_path / "g.frame"
        save_frame(frame, str(path))
        reloaded = load_frame(str(path))
        assert isinstance(reloaded, GFrame)
        for b1, b2 in zip(frame.blocks, reloaded.blocks):
            assert np.array_equal(b1, b2)

    def test_real_frame_stays_real(self, tmp_path, coordinate_gfusion):
        path = tmp_path / "c.frame"
        save_frame(coordinate_gfusion, str(path))
        data = json.loads(path.read_text())
        assert data["field"] == "real"
        assert data["kind"] == "gfusion"
        reloaded = load_frame(str(path))
        assert reloaded.dtype == np.float64

    def test_complex_entries_are_re_im_pairs(self):
        frame = GFrame([np.array([[1.0 + 2.0j]])])
        data = frame_to_dict(frame)
        assert data["components"][0]["lambda"] == [[[1.0, 2.0]]]
        reloaded = frame_from_dict(data)
        assert reloaded.blocks[0][0, 0] == 1.0 + 2.0j

    @pytest.mark.parametrize(
        "frame",
        [
            GFusionFrame([(np.eye(2), [[1j, 0], [0, 1]], 1.0)]),
            GFrame([np.eye(2), np.array([[1j, 0], [0, 1]])]),
        ],
        ids=["gfusion-real-basis", "gframe-real-block"],
    )
    def test_mixed_dtype_frame_round_trips_bit_exactly(self, tmp_path, frame):
        path = tmp_path / "mixed.frame"
        save_frame(frame, str(path))
        reloaded = load_frame(str(path))
        assert type(reloaded) is type(frame)
        assert reloaded.dtype == np.complex128
        assert reloaded.frame_operator.tobytes() == frame.frame_operator.tobytes()
        if isinstance(frame, GFrame):
            pairs = zip(frame.blocks, reloaded.blocks)
        else:
            pairs = [(m1, m2) for c1, c2 in zip(frame.components, reloaded.components)
                     for m1, m2 in ((c1.basis, c2.basis), (c1.block, c2.block))]
        for m1, m2 in pairs:
            assert np.array_equal(m1, m2)

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            frame_from_dict({"format_version": 99, "field": "real", "dim_h": 1,
                             "kind": "gframe", "components": []})

    def test_signed_zeros_write_golden_bytes_and_reload_bit_exactly(self, tmp_path):
        z = np.empty((2, 2), dtype=np.complex128)
        z.real = [[-0.0, 0.1], [1e-300, -2.5]]
        z.imag = [[-0.0, -0.0], [1 / 3, 0.0]]
        path = tmp_path / "z.frame"
        save_frame(GFrame([z]), str(path))
        assert path.read_bytes() == (
            b'{"format_version": 1, "field": "complex", "dim_h": 2, "kind": "gframe", '
            b'"components": [{"lambda": [[[-0.0, -0.0], [0.1, -0.0]], '
            b'[[1e-300, 0.3333333333333333], [-2.5, 0.0]]]}]}\n'
        )
        assert load_frame(str(path)).blocks[0].tobytes() == z.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda _: GFrame([np.arange(6.0).reshape(2, 3) / 7, np.eye(3)]),
            lambda _: GFrame([np.array([[1 / 3 + 2j, -0.0, 1e-300j]]), (1 - 1j) * np.eye(3)]),
            lambda _: GFrame([np.eye(2), np.array([[1j, 0], [0, 1]])]),
            lambda _: GFusionFrame([(np.eye(2), np.arange(4.0).reshape(2, 2) + 1, 0.75),
                                    (np.eye(2)[:, :1], [[1 / 3, -0.0]], 2.0)]),
            lambda _: GFusionFrame([(np.eye(2) * 1j, [[1 + 1j, 0], [0, 0.1j]], 1.5)]),
            lambda _: GFusionFrame([(np.eye(2), [[1j, 0], [0, 1]], 1.0)]),
            load_frame,
        ],
        ids=["gframe-real", "gframe-complex", "gframe-mixed", "gfusion-real",
             "gfusion-complex", "gfusion-mixed", "gen-dim64-complex"],
    )
    def test_file_bytes_are_json_dumps_of_the_dict(self, tmp_path, dim64_frame_file, make):
        frame = make(dim64_frame_file)
        path = tmp_path / "f.frame"
        save_frame(frame, str(path))
        # the oracle: the whole-frame encoding that the streamed writer replaces
        assert path.read_bytes() == (json.dumps(frame_to_dict(frame)) + "\n").encode()
        reloaded = load_frame(str(path))
        assert type(reloaded) is type(frame) and reloaded.dtype == frame.dtype
        for m1, m2 in zip(_matrices(frame), _matrices(reloaded), strict=True):
            assert m2.tobytes() == np.asarray(m1, dtype=frame.dtype).tobytes()
        if isinstance(frame, GFusionFrame):
            assert [c.weight for c in reloaded.components] == [c.weight for c in frame.components]

    def test_save_and_load_peak_below_one_frame_of_lists(self, tmp_path, dim64_frame_file):
        # whole-frame nested lists peaked at 6.3 MiB (save) and 4.1 MiB (load)
        frame = load_frame(dim64_frame_file)
        path = str(tmp_path / "again.frame")
        peaks = []
        for step in (lambda: save_frame(frame, path), lambda: load_frame(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.5 and peaks[1] < 3.0, peaks

    @pytest.mark.parametrize("command", ["verify", "demo-reconstruct"])
    @pytest.mark.parametrize(
        "content",
        ["[1, 2]", _COMPLEX_ENTRY_NOT_A_PAIR],
        ids=["top-level-list", "complex-entry-not-a-pair"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.frame"
        path.write_text(content)
        assert run_cli([command, "--frame", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_weight_file_is_invalid(self, tmp_path, coordinate_gfusion):
        path = tmp_path / "bad.frame"
        data = frame_to_dict(coordinate_gfusion)
        data["components"][0]["weight"] = 0.0
        path.write_text(json.dumps(data))
        ret = run_cli(["demo-reconstruct", "--frame", str(path), "--vector", "3,4"])
        assert ret == 2


def _unreadable_frame_text(kind, coordinate_gfusion):
    text = json.dumps(frame_to_dict(coordinate_gfusion))
    if kind == "nested-200000-deep":
        return "[" * 200_000
    if kind == "dim-h-1e400":
        return text.replace('"dim_h": 2', '"dim_h": 1e400')
    # a matrix entry no float can hold
    return text.replace('"lambda": [[1.0,', '"lambda": [[1' + "0" * 399 + ",", 1)


@pytest.mark.parametrize("command", ["verify", "demo-reconstruct"])
@pytest.mark.parametrize("kind", ["nested-200000-deep", "dim-h-1e400", "400-digit-entry"])
def test_unreadable_frame_file_exits_2(tmp_path, capsys, coordinate_gfusion, command, kind):
    text = _unreadable_frame_text(kind, coordinate_gfusion)
    assert text != json.dumps(frame_to_dict(coordinate_gfusion))
    path = tmp_path / "bad.frame"
    path.write_text(text)
    assert run_cli([command, "--frame", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# frame dicts whose decoding raised KeyError, TypeError or OverflowError
_MALFORMED_DICTS = {
    "missing-kind": lambda d: d.pop("kind"),
    "components-5": lambda d: d.update(components=5),
    "components-list-of-5": lambda d: d.update(components=[5]),
    "dim-h-1e400": lambda d: d.update(dim_h=json.loads("1e400")),
    "400-digit-entry": lambda d: d["components"][0]["lambda"][0].__setitem__(0, 10**400),
}


@pytest.mark.parametrize("spoil", _MALFORMED_DICTS.values(), ids=_MALFORMED_DICTS.keys())
def test_malformed_frame_dict_raises_value_error(tmp_path, capsys, coordinate_gfusion, spoil):
    data = frame_to_dict(coordinate_gfusion)
    spoil(data)
    with pytest.raises(ValueError):
        frame_from_dict(data)
    path = tmp_path / "bad.frame"
    path.write_text(json.dumps(data))
    for command in ("verify", "demo-reconstruct"):
        assert run_cli([command, "--frame", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


# matrices that no float64 array holds: the loader leaves them as parsed
_UNCONVERTIBLE_MATRICES = {
    "ragged-basis": lambda d: d["components"][1]["basis"].append([1.0, 2.0]),
    "object-entry": lambda d: d["components"][0]["lambda"][0].__setitem__(0, {}),
}


def _malformed_frame_text(name, coordinate_gfusion):
    if name == "complex-entry-not-a-pair":
        return _COMPLEX_ENTRY_NOT_A_PAIR
    data = frame_to_dict(coordinate_gfusion)
    {**_MALFORMED_DICTS, **_UNCONVERTIBLE_MATRICES}[name](data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "name", [*_MALFORMED_DICTS, *_UNCONVERTIBLE_MATRICES, "complex-entry-not-a-pair"]
)
def test_load_frame_raises_the_error_of_frame_from_dict(tmp_path, coordinate_gfusion, name):
    text = _malformed_frame_text(name, coordinate_gfusion)
    with pytest.raises(ValueError) as expected:
        frame_from_dict(json.loads(text))
    path = tmp_path / "bad.frame"
    path.write_text(text)
    with pytest.raises(ValueError) as raised:
        load_frame(str(path))
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def _frame_file_with_weight(tmp_path, weight, block=1.0):
    path = tmp_path / "heavy.frame"
    data = frame_to_dict(GFusionFrame([(np.eye(2), block * np.eye(2), 1.0)]))
    data["components"][0]["weight"] = weight
    path.write_text(json.dumps(data))
    return str(path)


class TestExtremeWeights:
    """Weights whose squares or frame terms overflow are invalid input."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["gen", "--dim", "2", "--components", "2:2:inf", "--out", str(tmp / "f")],
            lambda tmp: ["gen", "--dim", "2", "--components", "2:2:1e160", "--out", str(tmp / "f")],
            lambda tmp: ["gen", "--dim", "2", "--components", "2:2:1e154", "--out", str(tmp / "f")],
            lambda tmp: ["demo-reconstruct", "--random", "--dim", "2", "--components", "2:2:1e200"],
            lambda tmp: ["verify", "--frame", _frame_file_with_weight(tmp, 1e200)],
        ],
        ids=["gen-inf", "gen-square-overflows", "gen-terms-overflow",
             "demo-square-overflows", "verify-file-square-overflows"],
    )
    def test_exits_2_with_an_error_line(self, tmp_path, capsys, argv):
        assert run_cli(argv(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["gen", "--dim", "2", "--components", "2:2:1e154", "--out", str(tmp / "f")],
            lambda tmp: ["verify", "--frame", _frame_file_with_weight(tmp, 1e154, block=2.0)],
        ],
        ids=["gen", "verify-file"],
    )
    def test_overflowing_term_names_its_weight(self, tmp_path, capsys, argv):
        argv = argv(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "1e+154" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_finite_frame_operator_whose_spectrum_overflows(self, tmp_path, capsys):
        # S = 1e308 I is finite, but its bounds are not: a file that cannot
        # be loaded, not a frame without a positive lower bound
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", "--frame", _frame_file_with_weight(tmp_path, 1e154)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not load frame file")
        assert "bounds that are not finite" in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_gframe_block_names_its_index(self, tmp_path, capsys):
        path = tmp_path / "heavy-gframe.frame"
        data = frame_to_dict(GFrame([np.eye(2), np.eye(2)]))
        data["components"][1]["lambda"] = [[1e200, 0.0], [0.0, 1e200]]
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", "--frame", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "block 1" in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestGen:
    def test_undersized_spec_exits_1(self, tmp_path):
        ret = run_cli([
            "gen", "--dim", "3", "--components", "1:1:1",
            "--seed", "1", "--out", str(tmp_path / "f.frame"),
        ])
        assert ret == 1

    def test_bad_component_triple_exits_2(self, tmp_path):
        ret = run_cli([
            "gen", "--dim", "3", "--components", "nope",
            "--out", str(tmp_path / "f.frame"),
        ])
        assert ret == 2

    def test_deterministic_output(self, tmp_path):
        for name in ("a.frame", "b.frame"):
            assert run_cli([
                "gen", "--dim", "3", "--components", "2:2:1", "1:3:0.5",
                "--seed", "9", "--out", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "a.frame").read_text() == (tmp_path / "b.frame").read_text()

    def test_parseval_flag(self, tmp_path):
        path = tmp_path / "p.frame"
        assert run_cli([
            "gen", "--dim", "3", "--components", "2:2:1", "2:3:1", "--parseval",
            "--seed", "4", "--out", str(path),
        ]) == 0
        assert load_frame(str(path)).is_parseval


class TestVerify:
    def test_single_check_small_run(self):
        ret = run_cli(["verify", "--dims", "2", "--seeds", "2", "--checks", "LEMMA_L2"])
        assert ret == 0

    def test_repeated_check_id_runs_once(self, capsys):
        lines = []
        for checks in (["LEMMA_L2"], ["LEMMA_L2", "lemma_l2"]):
            assert run_cli(["verify", "--dims", "2", "--seeds", "1", "--checks", *checks]) == 0
            lines.append(capsys.readouterr().out.splitlines()[:-1])  # without the wall time
        assert lines[1] == lines[0]
        assert len(lines[0]) == 1 and "instances=8 evals=128" in lines[0][0]

    def test_negative_tolerance_exits_2(self):
        assert run_cli(["verify", "--tol-residual", "-1"]) == 2

    def test_unknown_check_exits_2(self):
        assert run_cli(["verify", "--checks", "NOT_A_CHECK"]) == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--dims", "x"])
        assert exc.value.code == 2

    def test_grid_that_cannot_be_generated_exits_2(self, capsys):
        assert run_cli(["verify", "--dims", "16", "--components", "4", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "dim 16" in err and "block dims [2, 3, 4, 5]" in err

    def test_zero_tolerance_exits_1(self):
        ret = run_cli([
            "verify", "--dims", "2", "--seeds", "1", "--components", "3",
            "--checks", "THM_TG1", "--tol-residual", "0", "--tol-margin", "0",
        ])
        assert ret == 1

    def test_report_json_and_csv_share_numerics(self, tmp_path):
        common = ["verify", "--dims", "2", "3", "--seeds", "2", "--components", "3",
                  "--field", "complex"]
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        assert run_cli(common + ["--report", str(jpath), "--format", "json"]) == 0
        assert run_cli(common + ["--report", str(cpath), "--format", "csv"]) == 0
        report = json.loads(jpath.read_text())
        reader = csv.DictReader(cpath.read_text().splitlines())
        assert reader.fieldnames == ["id", "instances", "evaluations", "max_residual",
                                     "min_margin", "pass", "witness_count"]
        rows = list(reader)
        assert report["overall_pass"] is True
        assert [row["id"] for row in rows] == [check["id"] for check in report["checks"]]
        # every column: a float by its repr, a bool as True/False, a null as ""
        for check, row in zip(report["checks"], rows):
            assert row == {k: "" if check[k] is None else str(check[k]) for k in reader.fieldnames}
        assert any(check["max_residual"] is None for check in report["checks"])
        assert any(check["min_margin"] is None for check in report["checks"])

    def test_report_numerics_deterministic(self, tmp_path):
        args = ["verify", "--dims", "2", "--seeds", "2", "--components", "3",
                "--field", "real"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--report", str(p1)]) == 0
        assert run_cli(args + ["--report", str(p2)]) == 0
        r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_default_report_contains_probe_witness(self, tmp_path):
        path = tmp_path / "r.json"
        ret = run_cli(["verify", "--dims", "3", "--seeds", "2", "--components", "3",
                       "--report", str(path)])
        assert ret == 0
        report = json.loads(path.read_text())
        probe = next(c for c in report["checks"] if c["id"] == "COR39_MINUS_PROBE")
        assert probe["witness_count"] >= 1
        assert probe["pass"] is True

    def test_verify_loaded_parseval_frame(self, tmp_path):
        path = tmp_path / "p.frame"
        assert run_cli([
            "gen", "--dim", "3", "--components", "2:2:1", "2:3:1", "--parseval",
            "--seed", "4", "--out", str(path),
        ]) == 0
        ret = run_cli(["verify", "--frame", str(path), "--checks", "SPECTRUM_REMARK"])
        assert ret == 0

    def test_inapplicable_check_on_loaded_frame_exits_2(self, tmp_path):
        path = tmp_path / "g.frame"
        assert run_cli([
            "gen", "--dim", "3", "--components", "2:2:1", "2:3:1",
            "--seed", "4", "--out", str(path),
        ]) == 0
        # generated frame is not Parseval; a Parseval-only check is a config error
        ret = run_cli(["verify", "--frame", str(path), "--checks", "SPECTRUM_REMARK"])
        assert ret == 2

    def test_frame_whose_checks_raise_exits_2(self, tmp_path, capsys):
        # S = (2.5e307 + 1) I is finite, but the subset sums of the sample
        # vectors overflow, so the checks raise on a frame that loads
        path = tmp_path / "near-overflow.frame"
        eye = np.eye(8)
        save_frame(GFusionFrame([(eye, eye, 5e153), (eye, eye, 1.0)]), str(path))
        assert run_cli(["verify", "--frame", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not evaluate the checks:")
        assert "finite" in err and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_frame_file_exits_2(self, tmp_path):
        assert run_cli(["verify", "--frame", str(tmp_path / "nope.frame")]) == 2

    def test_no_flags_give_the_default_plan(self, monkeypatch):
        # the flag defaults are read from SuitePlan and Tolerances
        import framekit.cli as cli

        monkeypatch.delenv("FRAMEKIT_TOLERANCE", raising=False)
        plans = []

        def record(plan, frame=None):
            plans.append(plan)
            return RunReport(plan, [], True, 0.0)

        monkeypatch.setattr(cli, "run_suite", record)
        assert run_cli(["verify"]) == 0
        assert plans == [SuitePlan()]

    def test_env_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("FRAMEKIT_TOLERANCE", "not-a-number")
        assert run_cli(["verify", "--dims", "2", "--seeds", "1"]) == 2
        monkeypatch.setenv("FRAMEKIT_TOLERANCE", "0")
        ret = run_cli(["verify", "--dims", "2", "--seeds", "1", "--components", "3",
                       "--checks", "THM_TG1"])
        assert ret == 1  # zero tolerance cannot survive rounding


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv, env, source",
    [
        (["verify", "--dims", "2", "--seeds", "1", "--tol-residual", "{}"], None, "--tol-residual"),
        (["verify", "--dims", "2", "--seeds", "1", "--tol-margin", "{}"], None, "--tol-margin"),
        (["verify", "--dims", "2", "--seeds", "1"], "{}", "FRAMEKIT_TOLERANCE"),
        (["demo-reconstruct", "--random", "--tol", "{}"], None, "--tol"),
        (["demo-reconstruct", "--random"], "{}", "FRAMEKIT_TOLERANCE"),
        (["verify", "--dims", "2", "--seeds", "1", "--tol-residual", "{}"], "1e-3",
         "--tol-residual"),
        (["verify", "--dims", "2", "--seeds", "1", "--tol-residual", "1e-5"], "{}",
         "FRAMEKIT_TOLERANCE"),
        (["demo-reconstruct", "--random", "--tol", "{}"], "1e-3", "--tol"),
    ],
    ids=["verify-tol-residual", "verify-tol-margin", "verify-env", "demo-tol", "demo-env",
         "verify-flag-over-env", "verify-env-for-margin", "demo-flag-over-env"],
)
def test_tolerance_that_is_not_finite_exits_2(monkeypatch, capsys, argv, env, source, value):
    # NaN compares false with every residual, so it would pass every check;
    # the one error line names the value's source
    if env is not None:
        monkeypatch.setenv("FRAMEKIT_TOLERANCE", env.format(value))
    assert run_cli([a.format(value) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {source} must be finite and nonnegative, got {value}\n"
    assert "PASS" not in captured.out


class TestToleranceSources:
    """Each tolerance comes from its flag, else from FRAMEKIT_TOLERANCE, read
    only when the flag is absent, else from the default."""

    @pytest.fixture
    def plans(self, monkeypatch):
        import framekit.cli as cli

        monkeypatch.delenv("FRAMEKIT_TOLERANCE", raising=False)
        plans = []

        def record(plan, frame=None):
            plans.append(plan)
            return RunReport(plan, [], True, 0.0)

        monkeypatch.setattr(cli, "run_suite", record)
        return plans

    @pytest.mark.parametrize(
        "env, flags, expected",
        [
            (None, [], Tolerances()),
            (None, ["--tol-residual", "1e-5"], Tolerances(1e-5, Tolerances().margin)),
            ("1e-3", [], Tolerances(1e-3, 1e-3)),
            ("1e-3", ["--tol-residual", "1e-5"], Tolerances(1e-5, 1e-3)),
            ("1e-3", ["--tol-margin", "1e-6"], Tolerances(1e-3, 1e-6)),
            ("1e-3", ["--tol-residual", "1e-5", "--tol-margin", "1e-6"], Tolerances(1e-5, 1e-6)),
        ],
        ids=["default", "flag", "env", "residual-flag", "margin-flag", "both-flags"],
    )
    def test_verify(self, monkeypatch, plans, env, flags, expected):
        if env is not None:
            monkeypatch.setenv("FRAMEKIT_TOLERANCE", env)
        assert run_cli(["verify", *flags]) == 0
        assert [plan.tol for plan in plans] == [expected]

    @pytest.mark.parametrize(
        "env, flags, expected",
        [(None, [], "1.0e-09"), ("1e-3", [], "1.0e-03"), ("1e-3", ["--tol", "1e-5"], "1.0e-05"),
         ("not-a-number", ["--tol", "1e-5"], "1.0e-05")],
        ids=["default", "env", "flag", "flag-over-malformed-env"],
    )
    def test_demo_reconstruct(self, monkeypatch, capsys, env, flags, expected):
        monkeypatch.delenv("FRAMEKIT_TOLERANCE", raising=False)
        if env is not None:
            monkeypatch.setenv("FRAMEKIT_TOLERANCE", env)
        assert run_cli(["demo-reconstruct", "--random", *flags]) == 0
        assert f"tolerance {expected}: PASS" in capsys.readouterr().out

    def test_both_flags_leave_a_malformed_env_unread(self, monkeypatch, plans):
        monkeypatch.setenv("FRAMEKIT_TOLERANCE", "not-a-number")
        assert run_cli(["verify", "--tol-residual", "1e-5", "--tol-margin", "1e-6"]) == 0
        assert [plan.tol for plan in plans] == [Tolerances(1e-5, 1e-6)]
        # with one flag absent, its tolerance still reads the environment
        assert run_cli(["verify", "--tol-residual", "1e-5"]) == 2


class TestDemoReconstruct:
    def test_coordinate_frame_exact(self, coordinate_frame_file, capsys):
        ret = run_cli(["demo-reconstruct", "--frame", coordinate_frame_file,
                       "--vector", "3,4", "--tol", "1e-12"])
        assert ret == 0
        out = capsys.readouterr().out
        assert "rel_error" in out and "PASS" in out

    def test_random_frame_random_vector(self):
        ret = run_cli(["demo-reconstruct", "--random", "--dim", "4",
                       "--components", "2:2:1", "3:2:1", "2:3:1",
                       "--seed", "5", "--random-vector", "--vector-seed", "6"])
        assert ret == 0

    def test_complex_vector_on_real_frame_exits_2(self, coordinate_frame_file):
        ret = run_cli(["demo-reconstruct", "--frame", coordinate_frame_file,
                       "--vector", "1+2j,0"])
        assert ret == 2

    def test_wrong_length_vector_exits_2(self, coordinate_frame_file):
        ret = run_cli(["demo-reconstruct", "--frame", coordinate_frame_file,
                       "--vector", "1,2,3"])
        assert ret == 2

    def test_gframe_file_demo(self, tmp_path):
        frame = GFrame([np.eye(2)])
        path = tmp_path / "id.frame"
        save_frame(frame, str(path))
        ret = run_cli(["demo-reconstruct", "--frame", str(path), "--vector", "1,2"])
        assert ret == 0

    def test_nothing_to_do_exits_2(self):
        assert run_cli(["demo-reconstruct"]) == 2

    @pytest.mark.parametrize("vector", ["nan,0", "nan+1j,0", "1e308,1e308"])
    def test_non_finite_vector_exits_2(self, capsys, vector):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ret = run_cli(["demo-reconstruct", "--random", "--dim", "2",
                           "--components", "2:2:1", "--vector", vector])
        assert ret == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert "PASS" not in captured.out
        assert caught == []

    @pytest.mark.parametrize("vector", ["inf,0", "-inf,0", "1+infi,0"])
    def test_infinite_coordinate_gets_the_non_finite_error(self, capsys, vector):
        ret = run_cli(["demo-reconstruct", "--random", "--dim", "2",
                       "--components", "2:2:1", f"--vector={vector}"])
        assert ret == 2
        err = capsys.readouterr().err
        assert "has a coordinate that is not finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("vector, expected", [("1+2i,0", [1 + 2j, 0]), ("2i,1", [2j, 1])])
    def test_imaginary_unit_i_still_parses(self, capsys, vector, expected):
        ret = run_cli(["demo-reconstruct", "--random", "--dim", "2",
                       "--components", "2:2:1", "--vector", vector])
        assert ret == 0
        out = capsys.readouterr().out
        assert f"f               = {np.array2string(np.array(expected, dtype=complex), precision=6)}" in out


@pytest.mark.parametrize("extra, code", [([], 0), (["--tol-residual", "nan"], 2)])
def test_python_m_framekit_runs_the_cli(extra, code):
    # both routes; the package does not load ``cli`` before runpy runs it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    for module in ("framekit", "framekit.cli"):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "verify",
             "--dims", "2", "--seeds", "1", "--checks", "LEMMA_L2", *extra],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, (module, done.stderr)
        assert ("overall: PASS" in done.stdout) == (code == 0), module
