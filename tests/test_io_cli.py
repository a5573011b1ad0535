"""PGM I/O, degradation pipeline, CLI commands, and the bench harness."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tvalm.alm import AlmConfig
from tvalm.bench import BenchCell, cells_to_csv, cells_to_markdown, run_matrix
from tvalm.cli import main, run_solver
from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.errors import InnerNewtonError, MaxOuterError, SolverError
from tvalm.linops import motion_kernel
from tvalm.metrics import psnr
from tvalm.pgm import PgmFormatError, load_image, save_image
from tvalm.report import strip_timing_columns

RNG = np.random.default_rng(13)


def _reject_constant(name):
    raise AssertionError(f"not strict JSON: {name}")


class TestPgm:
    def test_roundtrip_half_gray(self, tmp_path):
        path = tmp_path / "gray.pgm"
        save_image(path, np.full((5, 7), 0.5))
        back = load_image(path)
        assert back.shape == (5, 7)
        assert np.max(np.abs(back - 0.5)) <= 1.0 / 510

    def test_roundtrip_random(self, tmp_path):
        u = RNG.uniform(size=(9, 4))
        path = tmp_path / "r.pgm"
        save_image(path, u)
        assert np.max(np.abs(load_image(path) - u)) <= 1.0 / 510

    def test_single_pixel_255(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        assert load_image(path)[0, 0] == 1.0

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\x80")
        img = load_image(path)
        assert img.shape == (1, 2)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n\xff")
        with pytest.raises(PgmFormatError, match="magic"):
            load_image(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\xff\xff")
        with pytest.raises(PgmFormatError, match="maxval"):
            load_image(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        # Read as is, the 200 would load as 13.33, off the [0, 1] scale.
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\xc8\x07")
        with pytest.raises(PgmFormatError, match="data"):
            load_image(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(PgmFormatError, match="data"):
            load_image(path)


class TestDegrade:
    def test_zero_noise_no_blur_is_identity(self):
        u = RNG.uniform(size=(6, 6))
        out = degrade(u, DegradeSpec())
        assert np.array_equal(out, u)
        assert out is not u

    def test_same_seed_bit_identical(self):
        u = RNG.uniform(size=(8, 8))
        spec = DegradeSpec(noise_std=0.1, seed=99)
        assert np.array_equal(degrade(u, spec), degrade(u, spec))

    def test_noise_std_law_of_large_numbers(self):
        u = np.full((256, 256), 0.5)
        out = degrade(u, DegradeSpec(noise_std=0.1, seed=7))
        assert abs(np.std(out - 0.5) - 0.1) <= 0.005

    def test_blur_then_noise_order(self):
        u = blocks_image(16, 16, seed=0)
        kern = motion_kernel(5)
        spec = DegradeSpec(noise_std=0.05, blur=kern, seed=3)
        from tvalm.linops import blur_apply
        rng = np.random.default_rng(3)
        want = blur_apply(u, kern) + rng.normal(0.0, 0.05, size=u.shape)
        assert np.allclose(degrade(u, spec), want)

    def test_negative_noise_rejected(self):
        for noise in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                DegradeSpec(noise_std=noise)

    def test_blocks_image_deterministic(self):
        assert np.array_equal(blocks_image(16, 16, seed=4),
                              blocks_image(16, 16, seed=4))


class TestRunSolverApi:
    def test_negligible_alpha_returns_input(self):
        clean = blocks_image(8, 8, seed=1)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=2))
        state, report = run_solver(z, None, "pdp", AlmConfig(alpha=1e-12), clean, 2)
        assert psnr(state.u, z) >= 90.0  # effectively the observed image back


@pytest.fixture()
def tiny_corpus(tmp_path):
    img_dir = tmp_path / "corpus"
    img_dir.mkdir()
    save_image(img_dir / "flat.pgm", np.full((16, 16), 0.5))
    return img_dir


class TestCli:
    def test_synth_writes_pgm(self, tmp_path):
        out = tmp_path / "scene.pgm"
        assert main(["synth", str(out), "--rows", "12", "--cols", "10"]) == 0
        assert load_image(out).shape == (12, 10)

    def test_denoise_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        save_image(src, np.full((16, 16), 0.5))
        out = tmp_path / "out.pgm"
        rep = tmp_path / "run.json"
        rc = main(["denoise", str(src), "--noise", "0.05", "--seed", "3",
                   "--tv", "aniso", "--solver", "pdp", "--tol", "1e-6",
                   "--out", str(out), "--report", str(rep)])
        assert rc == 0
        assert load_image(out).shape == (16, 16)
        payload = json.loads(rep.read_text())
        assert payload["summary"]["converged"]
        assert payload["seed"] == 3
        csv_text = rep.with_suffix(".csv").read_text()
        header = csv_text.splitlines()[0]
        assert header.startswith("k,res_u,res_lambda,err,res1,res2,gap,psnr,wall_ms")
        row = capsys.readouterr().out
        assert "Err=" in row and "PSNR=" in row

    def test_denoise_csv_deterministic_modulo_timing(self, tmp_path):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(16, 16, seed=5))
        texts = []
        for tag in ("a", "b"):
            rep = tmp_path / f"run_{tag}.json"
            rc = main(["denoise", str(src), "--noise", "0.1", "--seed", "17",
                       "--solver", "pt", "--tol", "1e-5",
                       "--out", str(tmp_path / f"o_{tag}.pgm"),
                       "--report", str(rep)])
            assert rc == 0
            texts.append(strip_timing_columns(rep.with_suffix(".csv").read_text()))
        assert texts[0] == texts[1]

    def test_deblur_end_to_end(self, tmp_path):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(24, 24, seed=2))
        out = tmp_path / "out.pgm"
        rep = tmp_path / "run.json"
        rc = main(["deblur", str(src), "--noise", "0.01", "--blur-len", "5",
                   "--mu", "1e-6", "--alpha", "0.005", "--tol", "1e-4",
                   "--seed", "4", "--out", str(out), "--report", str(rep)])
        assert rc == 0
        payload = json.loads(rep.read_text())
        assert payload["summary"]["iterations"] >= 1

    def test_solver_failure_machine_readable(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(16, 16, seed=5))
        rc = main(["denoise", str(src), "--noise", "0.1", "--tol", "1e-12",
                   "--max-outer", "1", "--out", str(tmp_path / "o.pgm"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "MaxOuterError"
        assert "err" in payload

    def test_krylov_failure_names_the_method(self, tmp_path, capsys, monkeypatch):
        import tvalm.ssn as ssn
        monkeypatch.setattr(ssn, "KRYLOV_MAX_ITERS", 1)
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(8, 8, seed=5))
        rc = main(["denoise", str(src), "--solver", "pdp", "--out", str(tmp_path / "o.pgm"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1],
                             parse_constant=_reject_constant)
        assert payload["error"] == "KrylovError"
        assert (payload["method"], payload["outer"], payload["sigma"]) == ("cg", 1, 4.0)

    def test_bench_command(self, tiny_corpus, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        rc = main(["bench", str(tiny_corpus), "--solvers", "pdp,pt",
                   "--tols", "1e-4", "--variants", "aniso", "--noise", "0.05",
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        csv_lines = (out_dir / "bench.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + 1 image x 2 solvers x 1 tol
        assert (out_dir / "bench.md").exists()


class TestCliConfig:
    """Each solver flag reaches the run: the JSON report's config records it."""

    def run(self, tmp_path, argv):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(12, 12, seed=2))
        rep = tmp_path / "run.json"
        rc = main([argv[0], str(src), *argv[1:], "--out", str(tmp_path / "o.pgm"),
                   "--report", str(rep)])
        assert rc == 0
        return json.loads(rep.read_text())["config"]

    def test_denoise_flags(self, tmp_path):
        cfg = self.run(tmp_path, [
            "denoise", "--tv", "aniso", "--solver", "pt", "--alpha", "0.2",
            "--tol", "1e-5", "--sigma0", "8", "--growth", "2", "--sigma-max", "4096",
            "--delta", "1e-3", "--max-outer", "7"])
        assert cfg == {"alpha": 0.2, "variant": "aniso", "mu": 0.0, "inner": "pt",
                       "sigma0": 8.0, "growth_c": 2.0, "sigma_max": 4096.0,
                       "delta_inner": 1e-3, "outer_tol": 1e-5, "max_outer": 7}

    def test_deblur_mu(self, tmp_path):
        cfg = self.run(tmp_path, ["deblur", "--blur-len", "3", "--mu", "1e-5",
                                  "--solver", "pdp", "--alpha", "0.01", "--tol", "1e-4"])
        assert (cfg["mu"], cfg["inner"], cfg["alpha"]) == (1e-5, "pdp", 0.01)

    def test_alg2_reads_its_four_values(self, tmp_path):
        cfg = self.run(tmp_path, ["deblur", "--blur-len", "3", "--mu", "1e-5",
                                  "--solver", "alg2", "--tv", "aniso", "--alpha", "0.01",
                                  "--tol", "1e-3"])
        assert (cfg["alpha"], cfg["mu"], cfg["variant"], cfg["outer_tol"]) == (
            0.01, 1e-5, "aniso", 1e-3)

    def test_bench_cells_use_their_tolerance(self, tiny_corpus, tmp_path, capsys):
        # bench takes its tolerances from --tols alone; a --tol flag is a
        # usage error, and each cell runs at its --tols value and stops at
        # --max-outer.
        out_dir = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tiny_corpus), "--solvers", "pdp", "--tol", "0.5",
                  "--tols", "1e-12", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        rc = main(["bench", str(tiny_corpus), "--solvers", "pdp",
                   "--tols", "1e-12", "--max-outer", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        row = (out_dir / "bench.csv").read_text().strip().splitlines()[1]
        assert "MaxOuterError" in row

    @pytest.mark.parametrize("flags, growth", [
        (["--solver", "pt"], 2.0), (["--solver", "pdp"], 4.0),
        (["--solver", "pt", "--growth", "4"], 4.0)])
    def test_growth_defaults_to_the_solver_s(self, tmp_path, flags, growth):
        # The config is built before the solver is set, so the default is
        # resolved when the run starts; an explicit --growth wins.
        cfg = self.run(tmp_path, ["denoise", "--tv", "aniso", *flags])
        assert (cfg["inner"], cfg["growth_c"]) == (flags[1], growth)

    @pytest.mark.parametrize("flags, growth", [
        ([], {"pdp": 4.0, "pdd": 4.0, "pt": 2.0}),
        (["--growth", "3"], {"pdp": 3.0, "pdd": 3.0, "pt": 3.0})])
    def test_bench_cells_use_their_solver_s_growth(self, tiny_corpus, tmp_path,
                                                    monkeypatch, flags, growth):
        import tvalm.cli as cli
        cells = []

        def recorded(*args):
            cells.extend(run_matrix(*args))
            return cells

        monkeypatch.setattr(cli, "run_matrix", recorded)
        assert main(["bench", str(tiny_corpus), "--solvers", "pdp,pt,pdd", "--tols", "1e-4",
                     *flags, "--out-dir", str(tmp_path / "bench")]) == 0
        assert {c.solver: c.report.config["growth_c"] for c in cells} == growth

    @pytest.mark.parametrize("flags, growth", [
        (["--solvers", "pdp,pt,alg2", "--tols", "1e-4"], {"pdp": "4", "pt": "2", "alg2": ""}),
        (["--solvers", "pdp,pt", "--tols", "1e-12", "--max-outer", "2"],
         {"pdp": "4", "pt": "2"}),
        (["--solvers", "pdp,pt", "--tols", "1e-4", "--growth", "3"], {"pdp": "3", "pt": "3"})])
    def test_bench_tables_show_each_cell_s_growth(self, tiny_corpus, tmp_path, flags, growth):
        # Solved cells read it off their report's config, failed ones off the
        # report their error carried; ALG2 has none.
        out_dir = tmp_path / "bench"
        assert main(["bench", str(tiny_corpus), *flags, "--out-dir", str(out_dir)]) == 0
        header, *rows = (out_dir / "bench.csv").read_text().strip().splitlines()
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert {c["solver"]: c["growth"] for c in cells} == growth
        assert all(bool(c["error"]) == ("--max-outer" in flags) for c in cells)
        md_rows = (out_dir / "bench.md").read_text().strip().splitlines()[2:]
        assert {r.split(" | ")[2]: r.split(" | ")[3] for r in md_rows} == growth

    @pytest.mark.parametrize("flag", ["--solver", "--tv", "--tol", "--out", "--report"])
    def test_bench_rejects_single_run_flags(self, tiny_corpus, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tiny_corpus), flag, "x"])
        assert exc.value.code == 2

    def test_flag_rejected_by_library_is_reported(self, tmp_path, capsys):
        # The default 41-tap blur does not fit a 12x12 image.
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(12, 12, seed=2))
        assert main(["deblur", str(src), "--out", str(tmp_path / "o.pgm"),
                     "--report", str(tmp_path / "r.json")]) == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ValueError"
        assert "larger than image" in payload["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("solver", ["alg2", "pdd"])
    def test_solver_input_check_is_reported(self, solver, tmp_path, capsys):
        # Both solvers invert H, which a blur makes singular without mu.
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(32, 32, seed=2))
        assert main(["deblur", str(src), "--blur-len", "9", "--mu", "0", "--solver", solver,
                     "--out", str(tmp_path / "o.pgm"),
                     "--report", str(tmp_path / "r.json")]) == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ValueError"
        assert "mu > 0" in payload["message"]
        assert not (tmp_path / "r.json").exists()

    def test_pdp_deblurs_without_mu(self, tmp_path):
        cfg = self.run(tmp_path, ["deblur", "--blur-len", "3", "--mu", "0",
                                  "--alpha", "0.01", "--tol", "1e-4"])
        assert (cfg["mu"], cfg["inner"]) == (0.0, "pdp")

    def test_growth_one_is_reported(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(12, 12, seed=2))
        assert main(["denoise", str(src), "--growth", "1", "--out", str(tmp_path / "o.pgm"),
                     "--report", str(tmp_path / "r.json")]) == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload == {"error": "ValueError", "message": "growth_c must exceed 1"}

    @pytest.mark.parametrize("command, flag, word", [
        ("deblur", "--mu", "mu must be >= 0"), ("deblur", "--noise", "noise_std"),
        ("denoise", "--noise", "noise_std"), ("denoise", "--growth", "growth_c"),
        ("denoise", "--sigma-max", "sigma_max")])
    def test_nan_flag_is_reported(self, tmp_path, capsys, command, flag, word):
        src = tmp_path / "in.pgm"
        save_image(src, blocks_image(12, 12, seed=2))
        blur = ["--blur-len", "3"] if command == "deblur" else []
        assert main([command, str(src), *blur, flag, "nan", "--out", str(tmp_path / "o.pgm"),
                     "--report", str(tmp_path / "r.json")]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == "ValueError"
        assert word in payload["message"]
        assert not (tmp_path / "r.json").exists()

    def test_failure_line_is_strict_json(self, capsys):
        import tvalm.cli as cli
        assert cli._failure(MaxOuterError("diverged", err=float("nan"))) == 2
        line = capsys.readouterr().out.strip()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == "MaxOuterError" and payload["err"] == "nan"

    def test_inner_newton_failure_reports_sigma(self, capsys):
        import tvalm.cli as cli
        exc = InnerNewtonError("inner Newton cap exceeded", iterations=50, residual=2.5,
                               sigma=1024.0, residuals=[3.0, 2.5])
        exc.outer = 3  # as alm_run sets it
        assert cli._failure(exc) == 2
        payload = json.loads(capsys.readouterr().out.strip(), parse_constant=_reject_constant)
        assert payload["error"] == "InnerNewtonError"
        assert ((payload["sigma"], payload["residual"], payload["iterations"], payload["outer"])
                == (1024.0, 2.5, 50, 3))
        assert "sigma 1024" in payload["message"]

    @pytest.mark.parametrize("command", ["denoise", "deblur"])
    @pytest.mark.parametrize("source, error", [
        ("empty", "PgmFormatError"), ("missing", "FileNotFoundError"),
        ("directory", "IsADirectoryError")])
    def test_unreadable_input_is_reported(self, tmp_path, capsys, command, source, error):
        path = {"empty": tmp_path / "empty.pgm", "missing": tmp_path / "none.pgm",
                "directory": tmp_path}[source]
        if source == "empty":
            path.write_bytes(b"")
        assert main([command, str(path), "--out", str(tmp_path / "o.pgm"),
                     "--report", str(tmp_path / "r.json")]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == error
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("source, error", [
        ("bad image", "PgmFormatError"), ("missing", "FileNotFoundError"),
        ("no image", "FileNotFoundError")])
    def test_bench_unreadable_corpus_is_reported(self, tiny_corpus, tmp_path, capsys,
                                                  monkeypatch, source, error):
        import tvalm.cli as cli
        cells = []
        monkeypatch.setattr(cli, "run_solver", lambda *a: cells.append(a))
        if source == "bad image":
            (tiny_corpus / "broken.pgm").write_bytes(b"P2\n1 1\n255\n0\n")
            corpus = tiny_corpus
        elif source == "no image":
            corpus = tmp_path / "empty-corpus"
            corpus.mkdir()
        else:
            corpus = tmp_path / "no-such-corpus"
        out_dir = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out-dir", str(out_dir)]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == error
        assert cells == [] and not out_dir.exists()

    @pytest.mark.parametrize("flag, values, word", [
        ("--solvers", "pdp,foo", "'foo'"), ("--variants", "aniso,tv2", "'tv2'"),
        ("--tols", "1e-4,x", "'x'"), ("--tols", "1e-4,0", "outer_tol"),
        ("--tols", "1e-4,nan", "outer_tol"), ("--noise", "-1", "noise_std"),
        ("--noise", "nan", "noise_std")])
    def test_bench_checks_its_lists_before_the_sweep(self, tiny_corpus, tmp_path, capsys,
                                                     monkeypatch, flag, values, word):
        # A bad entry anywhere in a list ends the command before any cell runs.
        import tvalm.cli as cli
        cells = []
        monkeypatch.setattr(cli, "run_solver", lambda *a: cells.append(a))
        out_dir = tmp_path / "bench"
        assert main(["bench", str(tiny_corpus), flag, values,
                     "--out-dir", str(out_dir)]) == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ValueError"
        assert word in payload["message"]
        assert cells == [] and not out_dir.exists()


class TestBenchHarness:
    CFG = AlmConfig(alpha=0.1, sigma_max=16384.0, max_outer=40)
    SPEC = DegradeSpec(noise_std=0.05, seed=5)

    def runner(self, z, clean, solver, variant, tol):
        _, report = run_solver(z, None, solver,
                               replace(self.CFG, variant=variant, outer_tol=tol), clean, 5)
        return report

    def test_matrix_shape(self):
        images = [("flat", np.full((12, 12), 0.5))]
        cells = run_matrix(images, ["pdp", "pt"], ["aniso"], [1e-4], self.SPEC,
                           self.runner)
        assert len(cells) == 2
        assert all(c.error is None for c in cells)
        assert {c.solver for c in cells} == {"pdp", "pt"}

    def test_tolerance_ordering(self):
        images = [("flat", np.full((12, 12), 0.5))]
        cells = run_matrix(images, ["pdp"], ["aniso"], [1e-4, 1e-6], self.SPEC,
                           self.runner)
        by_tol = {c.tol: c.report.summary["iterations"] for c in cells}
        assert by_tol[1e-6] >= by_tol[1e-4]

    def test_partial_failure_recorded(self):
        def failing_runner(z, clean, solver, variant, tol):
            if solver == "bad":
                raise SolverError("synthetic failure")
            return self.runner(z, clean, solver, variant, tol)

        images = [("flat", np.full((12, 12), 0.5))]
        cells = run_matrix(images, ["pdp", "bad"], ["aniso"], [1e-4], self.SPEC,
                           failing_runner)
        errors = {c.solver: c.error for c in cells}
        assert errors["pdp"] is None
        assert "synthetic failure" in errors["bad"]
        text = cells_to_markdown(cells)
        assert "failed" in text

    def test_csv_schema(self):
        cell = BenchCell(image="x", variant="iso", solver="pdp", tol=1e-4)
        text = cells_to_csv([cell])
        header, row = text.strip().splitlines()
        assert header.split(",")[:4] == ["image", "variant", "solver", "tol"]
        assert row.split(",")[0] == "x"
