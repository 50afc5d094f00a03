"""End-to-end command-line pipeline.

Runs gen-synthetic -> pretrain -> metatrain -> eval -> report -> grad-check
on a small world, checking exit codes, output files, byte-identical reruns,
and the single-line error contract.
"""

import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from flowr.checkpoint import load_checkpoint, save_checkpoint
from flowr.cli import _build_config, build_parser, main
from flowr.config import ExperimentConfig
from flowr.data import read_dataset
from flowr.runner import read_records


def _parse_metrics(text):
    out = {}
    for line in text.strip().splitlines():
        assert line.startswith("metric name="), line
        name, _, value = line[len("metric name="):].partition(" value=")
        out[name] = value
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small world taken through pretraining and meta-training."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "world.fse"
    pre = root / "pre.ckpt"
    trained = root / "meta.ckpt"
    trace = root / "trace.txt"
    assert main([
        "gen-synthetic", "--out", str(data), "--classes", "10", "--dim", "4",
        "--points-per-class", "15", "--seed", "0",
    ]) == 0
    assert main([
        "pretrain", "--data", str(data), "--out", str(pre),
        "--epochs", "3", "--step-size", "0.01", "--seed", "0",
    ]) == 0
    assert main([
        "metatrain", "--data", str(data), "--out", str(trained),
        "--episodes", "8", "--step-size", "0.005",
        "--support-classes", "3", "--novel-classes", "2",
        "--shots-min", "1", "--shots-max", "3", "--queries-per-class", "2",
        "--trace", str(trace), "--seed", "0",
    ]) == 0
    return SimpleNamespace(data=data, pre=pre, trained=trained, trace=trace)


EVAL_SHAPE = [
    "--episodes", "4", "--support-classes", "3", "--novel-classes", "2",
    "--queries-per-class", "3", "--seed", "1",
]


def _eval_args(pipeline, out_dir, *extra):
    return [
        "eval", "--data", str(pipeline.data), "--checkpoint", str(pipeline.trained),
        "--out-dir", str(out_dir), *EVAL_SHAPE, *extra,
    ]


class TestPipeline:
    def test_gen_synthetic_output(self, tmp_path, capsys):
        path = tmp_path / "w.fse"
        assert main([
            "gen-synthetic", "--out", str(path), "--classes", "3", "--dim", "2",
            "--points-per-class", "4",
        ]) == 0
        assert capsys.readouterr().out == f"wrote {path}: 12 points, 3 classes, dim 2\n"
        ds = read_dataset(path)
        assert (ds.n_classes, ds.dim) == (3, 2)

    def test_module_entry_point(self, tmp_path):
        """The package runs as python -m flowr.cli."""
        path = tmp_path / "w.fse"
        proc = subprocess.run(
            [sys.executable, "-m", "flowr.cli", "gen-synthetic", "--out", str(path),
             "--classes", "2", "--dim", "2", "--points-per-class", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert path.exists()

    def test_pretrain_checkpoint_contents(self, pipeline):
        ckpt = load_checkpoint(pipeline.pre)
        assert ckpt.embeddings.n_classes == 10
        assert ckpt.params.encoder.kind == "affine"
        assert ckpt.setting == "sc"
        assert ckpt.config_hash is not None

    def test_pretrain_train_classes_restricts(self, pipeline, tmp_path):
        out = tmp_path / "pre5.ckpt"
        assert main([
            "pretrain", "--data", str(pipeline.data), "--out", str(out),
            "--epochs", "1", "--train-classes", "5",
        ]) == 0
        assert load_checkpoint(out).embeddings.n_classes == 5

    def test_metatrain_trace_file(self, pipeline):
        lines = pipeline.trace.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("step=0 episodes=1 loss=")
        losses = [float(line.split("loss=")[1].split()[0]) for line in lines]
        assert all(np.isfinite(losses))

    def test_eval_writes_reports(self, pipeline, tmp_path, capsys):
        assert main(_eval_args(pipeline, tmp_path)) == 0
        stdout = capsys.readouterr().out
        metrics_file = tmp_path / "flowr_metrics.txt"
        assert stdout == metrics_file.read_text()
        metrics = _parse_metrics(stdout)
        assert metrics["n_episodes"] == "4"
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        assert metrics["target_tpr"] == "0.15"

        roc_lines = (tmp_path / "flowr_roc.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr,threshold"
        first = roc_lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 0.0) and first[2] == "inf"

        episodes = read_records(tmp_path / "flowr_records.txt")
        assert len(episodes) == 4 and all(len(e) == 5 * 3 for e in episodes)

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_eval_args(pipeline, a)) == 0
        assert main(_eval_args(pipeline, b)) == 0
        for name in ("flowr_records.txt", "flowr_roc.csv", "flowr_metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_worker_count_does_not_change_results(self, pipeline, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert main(_eval_args(pipeline, a, "--workers", "1")) == 0
        assert main(_eval_args(pipeline, b, "--workers", "4")) == 0
        for name in ("flowr_records.txt", "flowr_metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_report_reproduces_eval_metrics(self, pipeline, tmp_path, capsys):
        assert main(_eval_args(pipeline, tmp_path)) == 0
        eval_metrics = _parse_metrics(capsys.readouterr().out)
        assert main([
            "report", "--records", str(tmp_path / "flowr_records.txt"), "--tpr", "0.15",
        ]) == 0
        report_metrics = _parse_metrics(capsys.readouterr().out)
        for key in set(eval_metrics) & set(report_metrics):
            assert report_metrics[key] == eval_metrics[key], key

    def test_out_dir_env_var(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWR_OUT_DIR", str(tmp_path))
        args = _eval_args(pipeline, tmp_path)
        del args[args.index("--out-dir"):args.index("--out-dir") + 2]
        assert main(args) == 0
        assert (tmp_path / "flowr_metrics.txt").exists()

    def test_baseline_method(self, pipeline, tmp_path, capsys):
        assert main(_eval_args(pipeline, tmp_path, "--method", "ncm")) == 0
        metrics = _parse_metrics(capsys.readouterr().out)
        assert metrics["method"] == "ncm"
        assert (tmp_path / "ncm_records.txt").exists()


class TestGradCheckCommand:
    def test_passes_at_reference_tolerance(self, capsys):
        assert main(["grad-check", "--trials", "1", "--tolerance", "1e-4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = sorted(line.split()[1] for line in lines)
        assert names == [
            "name=fine_tune", "name=meta_lc", "name=meta_sc",
            "name=meta_sc_sequential", "name=pretrain",
        ]
        for line in lines:
            assert float(line.split("max_rel_error=")[1]) <= 1e-4

    def test_fails_at_impossible_tolerance(self, capsys):
        assert main(["grad-check", "--trials", "1", "--tolerance", "1e-15"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gradient check failed")


class TestErrorContract:
    def test_missing_file_is_single_line_exit_1(self, capsys):
        assert main(["eval", "--data", "/no/such.fse", "--checkpoint", "/no/such.ckpt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")
        assert err.count("\n") == 1

    def test_corrupt_data_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fse"
        bad.write_bytes(b"not a dataset at all")
        assert main(["pretrain", "--data", str(bad), "--out", str(tmp_path / "x.ckpt")]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError:")

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["gen-synthetic", "--out", "x", "--frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_lc_metatrain_requires_init(self, pipeline, tmp_path, capsys):
        assert main([
            "metatrain", "--data", str(pipeline.data), "--out", str(tmp_path / "x.ckpt"),
            "--setting", "lc",
        ]) == 2
        assert "requires --init" in capsys.readouterr().err

    def test_sc_metatrain_refuses_lc_checkpoint(self, pipeline, tmp_path, capsys):
        """Small-context training from a large-context checkpoint used to
        fail on a numpy broadcast error; it is refused with one line and
        writes nothing."""
        pre = load_checkpoint(pipeline.pre)
        lc = tmp_path / "lc.ckpt"
        save_checkpoint(lc, replace(pre, params=pre.params.with_class_embeddings(pre.embeddings), setting="lc"))
        out = tmp_path / "x.ckpt"
        assert main([
            "metatrain", "--data", str(pipeline.data), "--init", str(lc), "--out", str(out),
            "--setting", "sc", "--episodes", "2", "--support-classes", "3", "--novel-classes", "2",
            "--shots-max", "3", "--queries-per-class", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: small-context loss takes no per-class stats")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_train_classes_bound(self, pipeline, tmp_path, capsys):
        assert main([
            "pretrain", "--data", str(pipeline.data), "--out", str(tmp_path / "x.ckpt"),
            "--train-classes", "99",
        ]) == 2
        assert "exceeds 10 dataset classes" in capsys.readouterr().err

    def test_eval_train_classes_must_leave_classes(self, pipeline, tmp_path, capsys):
        assert main(
            _eval_args(pipeline, tmp_path) + ["--train-classes", "10"]
        ) == 2
        assert "leaves no evaluation classes" in capsys.readouterr().err

    def test_eval_train_classes_is_refused_in_large_context(self, pipeline, tmp_path, capsys):
        """Large-context evaluation keeps its class rows' ids as the known
        classes: --train-classes used to be ignored there without a word."""
        pre = tmp_path / "pre.ckpt"
        assert main(["pretrain", "--data", str(pipeline.data), "--out", str(pre), "--train-classes", "6",
                     "--epochs", "1", "--seed", "0"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["eval", "--data", str(pipeline.data), "--checkpoint", str(pre), "--setting", "lc",
                     "--out-dir", str(out), "--episodes", "2", "--novel-classes", "2", "--queries-per-class", "2",
                     "--train-classes", "6"]) == 2
        assert capsys.readouterr().err == (
            "error: --train-classes applies to small-context evaluation: large context keeps its known classes\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, field", [
        ("pretrain", "--epochs", "pretrain_epochs"),
        ("pretrain", "--batch-size", "pretrain_batch_size"),
        ("metatrain", "--episodes", "meta_episodes"),
        ("metatrain", "--batch-size", "meta_batch_size"),
        ("eval", "--episodes", "eval_episodes"),
    ])
    def test_zero_count_rejected_before_writing(self, pipeline, tmp_path, capsys, command, flag, field):
        """A count field of 0 fails as one line naming the field, before any
        output exists (pretrain and metatrain used to write --out and then
        crash; eval blamed accuracy_suite)."""
        out = tmp_path / "out"
        where = ["--checkpoint", str(pipeline.trained), "--out-dir"] if command == "eval" else ["--out"]
        shape = [] if command == "pretrain" else ["--support-classes", "3", "--novel-classes", "2"]
        assert main([command, "--data", str(pipeline.data), *where, str(out), *shape, flag, "0"]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {field} must be at least 1, got 0\n"
        assert not out.exists()


_REQUIRED = {
    "pretrain": ["--data", "d.fse", "--out", "o.ckpt"],
    "metatrain": ["--data", "d.fse", "--out", "o.ckpt"],
    "eval": ["--data", "d.fse", "--checkpoint", "c.ckpt"],
}


class TestConfigOverrides:
    @pytest.mark.parametrize("command, flag, value, field", [
        ("pretrain", "--setting", "lc", "setting"),
        ("pretrain", "--a", "0.25", "a"),
        ("pretrain", "--noise-variance", "0.75", "noise_variance"),
        ("pretrain", "--seed", "9", "seed"),
        ("pretrain", "--beta", "0.3", "beta"),
        ("pretrain", "--step-size", "0.05", "pretrain_step_size"),
        ("pretrain", "--epochs", "7", "pretrain_epochs"),
        ("pretrain", "--batch-size", "5", "pretrain_batch_size"),
        ("metatrain", "--episodes", "11", "meta_episodes"),
        ("metatrain", "--batch-size", "3", "meta_batch_size"),
        ("metatrain", "--step-size", "0.02", "meta_step_size"),
        ("metatrain", "--lambda-w", "0.4", "lambda_w"),
        ("metatrain", "--support-classes", "6", "train_support_classes"),
        ("metatrain", "--novel-classes", "4", "train_novel_classes"),
        ("metatrain", "--shots-min", "2", "shots_min"),
        ("metatrain", "--shots-max", "4", "shots_max"),
        ("metatrain", "--queries-per-class", "3", "train_queries_per_class"),
        ("eval", "--tpr", "0.5", "operating_tpr"),
        ("eval", "--episodes", "12", "eval_episodes"),
        ("eval", "--support-classes", "7", "eval_support_classes"),
        ("eval", "--novel-classes", "3", "eval_novel_classes"),
        ("eval", "--queries-per-class", "4", "eval_queries_per_class"),
        ("eval", "--fine-tune-steps", "2", "fine_tune_steps"),
        ("eval", "--fine-tune-step-size", "0.02", "fine_tune_step_size"),
    ])
    def test_flag_lands_in_its_field(self, command, flag, value, field):
        """Each override flag sets its own config field and no other."""
        args = build_parser().parse_args([command, *_REQUIRED[command], flag, value])
        default = ExperimentConfig()
        want = replace(default, **{field: type(getattr(default, field))(value)})
        assert want != default
        assert _build_config(args) == want

    def test_preset_and_config_are_exclusive(self, tmp_path, capsys):
        """Given both, the config file used to be ignored silently."""
        cfg = tmp_path / "f.json"
        cfg.write_text('{"setting": "lc", "seed": 7}')
        argv = ["eval", *_REQUIRED["eval"], "--preset", "sc-paper", "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --config: not allowed with argument --preset")
        assert err.count("\n") == 1

    def test_config_naming_the_deleted_feature_dimension_is_refused(self, pipeline, tmp_path, capsys):
        """ExperimentConfig no longer has the field d (the feature dimension,
        which nothing read): a config file that still sets it is refused in
        one line naming it, not read with d ignored."""
        cfg = tmp_path / "old.json"
        cfg.write_text('{"setting": "sc", "d": 64, "seed": 7}')
        assert main(_eval_args(pipeline, tmp_path / "out", "--config", str(cfg))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TypeError: ") and "'d'" in err
        assert err.count("\n") == 1
