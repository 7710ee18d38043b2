import json

import numpy as np
import pytest

from bevssl.autograd import save_checkpoint
from bevssl.bench import load_config
from bevssl.cli import main
from bevssl.geometry import SMALL_GRID, Raster
from bevssl.rng import Stream
from bevssl.world import write_raster

TINY_DOC = {
    "kind": "ssl",
    "name": "cli-tiny",
    "world": {"n_worlds": 6, "seqs_per_world": 1, "n_frames": 4,
              "val_worlds": 1, "test_worlds": 2, "utilisation": 0.34},
    "model": {"enc_widths": [3, 4], "lift_channels": 4, "dec_widths": [4]},
    "train": {"total_steps": 8, "eval_every": 4},
    "eval": {"seeds": [0]},
}


def _write_cfg(tmp_path, doc=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc or TINY_DOC))
    return path


def test_gen_world_writes_canonical_json(tmp_path, capsys):
    out = tmp_path / "w"
    assert main(["gen-world", "--seed", "4", "--style", "city_B",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "world.json").read_text())
    assert doc["seed"] == 4
    classes = {p["class"] for p in doc["polylines"]}
    assert classes == {"ped_crossing", "divider", "boundary"}
    assert "ped_crossing" in capsys.readouterr().out

    out2 = tmp_path / "w2"
    main(["gen-world", "--seed", "4", "--style", "city_B", "--out", str(out2)])
    assert (out / "world.json").read_bytes() == (out2 / "world.json").read_bytes()


def test_train_eval_cycle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    ckpt = sorted(out.glob("run_*.ckpt"))[0]

    out_eval = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                 "--split", "test", "--out", str(out_eval)]) == 0
    doc = json.loads((out_eval / "eval.json").read_text())
    assert doc["split"] == "test"
    assert 0.0 <= doc["miou"] <= 1.0
    assert "mIoU" in capsys.readouterr().out
    # the checkpoint is the run's best one, so both evaluations must agree
    assert ckpt.name == "run_ssl_s0.ckpt"
    rows = [r.split(",") for r in
            (out / "metrics.csv").read_text().splitlines()[1:]]
    (miou,) = [r[7] for r in rows if r[4] == "test" and r[5] == "all"]
    assert doc["miou"] == float(miou)


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"world": {"bogus": true}}')
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("ssl", [{"threshold": 1.5}, {"fusion_mode": "nope"},
                                 {"fusion_warp": "nope"}],
                         ids=["threshold", "fusion_mode", "fusion_warp"])
def test_bad_ssl_value_exits_2_at_load(tmp_path, capsys, ssl):
    cfg = _write_cfg(tmp_path, {**TINY_DOC, "ssl": ssl})
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section,values", [
    ("world", {"grid_preset": "huge"}), ("world", {"style": "city_Z"}),
    ("eval", {"adapt_target_style": "x"}), ("train", {"eval_every": 0}),
    ("train", {"total_steps": "5"}), ("train", {"eval_model": "techer"}),
    ("train", {"supervised_augment": "sme"}), ("world", {"n_frames": True}),
    ("train", {"total_steps": 0}),
    ("world", {"utilisation": "0.5"}), ("world", {"speed_max": "12"}),
    ("train", {"lr": "0.003"}), ("train", {"wd": True}),
    ("train", {"ema_keep": "0.99"}), ("augment", {"photometric": "no"}),
    ("augment", {"camdrop_count": True}),
    ("augment", {"gain_range": ["a", "b"]}), ("model", {"kernel_size": 3.0}),
    ("ssl", {"hard": "yes"}), ("ssl", {"fusion_extra": 2.5}),
    ("eval", {"seeds": ["0"]}),
    ("world", {"speed_min": 5.0, "speed_max": 1.0}), ("eval", {"seeds": []}),
    ("world", {"utilisation": 2.0}), ("world", {"utilisation": 0.0}),
    ("eval", {"sweep_utilisations": [0.5, 0.0]}),
    ("eval", {"sweep_utilisations": [1.5]}),
    ("train", {"batch_labelled": 0}), ("world", {"n_worlds": 3}),
    ("model", {"obs_channels": 4}), ("train", {"batch_unlabelled": 0}),
    ("train", {"batch_unlabelled": -1}), ("world", {"n_frames": 0}),
    ("world", {"seqs_per_world": 0}), ("world", {"val_worlds": -1}),
    ("world", {"test_worlds": 0}), ("eval", {"sweep_utilisations": []}),
    ("eval", {"adapt_unlabelled_counts": []}),
    ("eval", {"adapt_unlabelled_counts": [0, -1]}), ("train", {"lr": -1}),
    ("train", {"wd": -1e-4}), ("train", {"beta1": 1.0}),
    ("train", {"beta2": -0.1}), ("train", {"ema_keep": 5.0}),
    ("eval", {"adapt_source_worlds": 0}), ("eval", {"seeds": [0, 0]}),
    ("eval", {"sweep_utilisations": [0.5, 0.5]}),
    ("eval", {"adapt_unlabelled_counts": [0, 8, 8]}),
    ("ssl", {"w_cls": -1}), ("ssl", {"rampup_fraction": 0}),
    ("ssl", {"feat_mode": "l1"}), ("ssl", {"feat_level": "mid"}),
    ("train", {"focal_gamma": -1}), ("train", {"focal_alpha": 1.5})],
    ids=["grid_preset", "style", "adapt_target_style", "eval_every",
         "total_steps", "eval_model", "supervised_augment", "bool_as_int",
         "total_steps_zero", "utilisation_str", "speed_max_str", "lr_str",
         "wd_bool", "ema_keep_str", "photometric_str", "camdrop_count_bool",
         "gain_range_str", "kernel_size_float", "hard_str",
         "fusion_extra_float", "seeds_str", "speed_min_gt_max", "seeds_empty",
         "utilisation_above_1", "utilisation_0", "sweep_utilisation_0",
         "sweep_utilisation_above_1", "batch_labelled_0", "n_worlds_short",
         "obs_channels_4", "batch_unlabelled_0", "batch_unlabelled_neg",
         "n_frames_0", "seqs_per_world_0", "val_worlds_neg", "test_worlds_0",
         "sweep_utilisations_empty", "adapt_counts_empty",
         "adapt_count_neg", "lr_neg", "wd_neg", "beta1_1", "beta2_neg",
         "ema_keep_5", "adapt_source_worlds_0", "seeds_repeated",
         "sweep_utilisations_repeated", "adapt_counts_repeated",
         "w_cls_neg", "rampup_fraction_0", "feat_mode_l1", "feat_level_mid",
         "focal_gamma_neg", "focal_alpha_above_1"])
def test_bad_value_exits_2_at_load(tmp_path, capsys, section, values):
    doc = {**TINY_DOC, section: {**TINY_DOC.get(section, {}), **values}}
    assert main(["train", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(f"{section}.{key}" in err for key in values)
    assert not (tmp_path / "x").exists()


def _rejected_at_load(tmp_path, capsys, argv, cfg_path):
    assert main([*argv, "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert not (tmp_path / "x").exists()
    return err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section,values", [
    ("ssl", {"fusion_max_range": NAN}), ("ssl", {"w_feat": NAN}),
    ("ssl", {"temperature": NAN}), ("train", {"focal_gamma": NAN}),
    ("world", {"speed_min": NAN}), ("world", {"speed_max": NAN}),
    ("train", {"lr": INF}), ("ssl", {"w_cls": INF}),
    ("train", {"wd": -INF}), ("augment", {"gain_range": [NAN, 1.0]})],
    ids=["fusion_max_range_nan", "w_feat_nan", "temperature_nan",
         "focal_gamma_nan", "speed_min_nan", "speed_max_nan", "lr_inf",
         "w_cls_inf", "wd_neg_inf", "gain_range_nan"])
def test_non_finite_number_exits_2_at_load(tmp_path, capsys, section,
                                           values):
    # json writes and reads these as NaN, Infinity and -Infinity
    doc = {**TINY_DOC, section: {**TINY_DOC.get(section, {}), **values}}
    err = _rejected_at_load(tmp_path, capsys, ["train"],
                            _write_cfg(tmp_path, doc))
    assert "finite float" in err


@pytest.mark.parametrize("text", [b"[]", b"3", b"null", b'"ssl"',
                                  b'{"name": "caf\xe9"}'],
                         ids=["list", "number", "null", "string", "latin1"])
def test_non_object_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    err = _rejected_at_load(tmp_path, capsys, ["train"], path)
    assert "must be a JSON object" in err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 200000 + "]" * 200000)
    err = _rejected_at_load(tmp_path, capsys, ["train"], path)
    assert "nests too deeply" in err


@pytest.mark.parametrize("argv,doc", [
    (["train", "--seed", "1"], {**TINY_DOC, "eval": {"seeds": [0, 1]}}),
    (["ablate", "--scenario", "ssl"],
     {**TINY_DOC, "kind": "city-adapt",
      "world": {**TINY_DOC["world"], "n_worlds": 2}})],
    ids=["seed_repeats_a_seed", "kind_needs_more_worlds"])
def test_cli_overrides_are_checked_at_load(tmp_path, capsys, argv, doc):
    # the file alone loads; the config the command would run does not
    cfg = _write_cfg(tmp_path, doc)
    load_config(cfg)
    _rejected_at_load(tmp_path, capsys, argv, cfg)


@pytest.mark.parametrize("command,kind", [("adapt", "ssl"),
                                          ("train", "city-adapt")])
def test_city_adapt_with_several_sequences_per_world_exits_2(
        tmp_path, capsys, command, kind):
    doc = {**TINY_DOC, "kind": kind,
           "world": {**TINY_DOC["world"], "seqs_per_world": 3}}
    err = _rejected_at_load(tmp_path, capsys, [command],
                            _write_cfg(tmp_path, doc))
    assert "world.seqs_per_world must be 1 for kind city-adapt, got 3" in err


def test_partial_checkpoint_exits_2(tmp_path, capsys):
    path = tmp_path / "part.ckpt"
    save_checkpoint(path, {"best.head.b": np.zeros(3)})
    assert main(["eval", "--checkpoint", str(path), "--config",
                 str(_write_cfg(tmp_path)), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_train_runs_label_sweep(tmp_path):
    doc = {**TINY_DOC, "kind": "label-sweep",
           "eval": {"seeds": [0], "sweep_utilisations": [0.5, 1.0]}}
    out = tmp_path / "sweep"
    assert main(["train", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    variants = list(dict.fromkeys(r.split(",")[1] for r in rows))
    assert variants == ["supervised@0.5", "ssl@0.5", "supervised@1"]


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_render_writes_images(tmp_path, capsys):
    vals = Stream(9).uniforms(3 * 96 * 32).reshape(3, 96, 32)
    raster_path = tmp_path / "sample.bevras"
    write_raster(raster_path, Raster(SMALL_GRID, vals))
    out = tmp_path / "imgs"
    assert main(["render", "--raster", str(raster_path),
                 "--out", str(out)]) == 0
    assert (out / "sample_ch0.pgm").exists()
    assert (out / "sample_rgb.ppm").exists()
    assert (out / "sample_ch0.pgm").read_bytes().startswith(b"P5\n32 96\n255\n")


@pytest.mark.parametrize("command", ["render", "eval"])
def test_truncated_container_exits_2(tmp_path, capsys, command):
    if command == "render":
        path = tmp_path / "cut.bevras"
        write_raster(path, Raster(SMALL_GRID, np.zeros((3, 96, 32))))
        argv = ["render", "--raster", str(path)]
    else:
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"best.head.b": np.zeros(3)})
        argv = ["eval", "--checkpoint", str(path), "--config",
                str(_write_cfg(tmp_path))]
    path.write_bytes(path.read_bytes()[:-4])
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_adapt_writes_one_variant_per_target_count(tmp_path):
    doc = {**TINY_DOC, "world": {"n_frames": 3, "val_worlds": 1,
                                 "test_worlds": 1},
           "train": {"total_steps": 4, "eval_every": 2},
           "eval": {"seeds": [0], "adapt_source_worlds": 2,
                    "adapt_unlabelled_counts": [0, 2]}}
    out = tmp_path / "adapt"
    assert main(["adapt", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(r.split(",")[1] for r in rows)) \
        == ["adapt@0", "adapt@2"]


def test_unknown_template_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    # argparse rejects a name outside the scenario table
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", str(cfg), "--scenario", "nonsense",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--threads", threads,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_kind_exits_2_at_load(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**TINY_DOC, "kind": "sl"})
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 2
    assert "kind must be one of" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


RERUN_DOC = {**TINY_DOC,
             "world": {"n_worlds": 6, "n_frames": 3, "val_worlds": 1,
                       "test_worlds": 1, "utilisation": 0.34},
             "train": {"total_steps": 4, "eval_every": 2},
             "eval": {"seeds": [0], "adapt_source_worlds": 2,
                      "adapt_unlabelled_counts": [0, 2]}}


@pytest.mark.parametrize("argv", [["train"],
                                  ["ablate", "--scenario", "fusion-frames"],
                                  ["adapt"]], ids=["train", "ablate", "adapt"])
def test_config_echo_reruns_the_same_runs(tmp_path, argv):
    out, again = tmp_path / "out", tmp_path / "again"
    assert main([argv[0], "--config", str(_write_cfg(tmp_path, RERUN_DOC)),
                 "--out", str(out), *argv[1:]]) == 0
    assert main(["train", "--config", str(out / "config_echo.json"),
                 "--out", str(again)]) == 0
    ckpts = sorted(p.name for p in out.glob("run_*.ckpt"))
    assert ckpts == sorted(p.name for p in again.glob("run_*.ckpt"))
    for name in ["metrics.csv", "aggregates.json", *ckpts]:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_preset_and_seed_overrides(tmp_path):
    doc = dict(TINY_DOC)
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--seed", "7"]) == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["eval"]["seeds"][0] == 7
