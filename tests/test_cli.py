import argparse
import json

import numpy as np
import pytest

from bevssl.autograd import save_checkpoint
from bevssl.bench import config_from_dict
from bevssl.cli import build_parser, main
from bevssl.model import init_params

TINY_DOC = {
    "kind": "ssl",
    "name": "cli-tiny",
    "world": {"n_worlds": 6, "n_frames": 4, "val_worlds": 1,
              "test_worlds": 2, "utilisation": 0.34},
    "model": {"enc_widths": [3, 4], "lift_channels": 4, "dec_widths": [4]},
    "train": {"total_steps": 8, "eval_every": 4},
    "eval": {"seeds": [0]},
}


def _write_cfg(tmp_path, doc=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc or TINY_DOC))
    return path


def _run_checkpoint(tmp_path, name="run_ssl_s0.ckpt", echo=TINY_DOC):
    """Where eval looks for a run's checkpoint: `name` beside a
    `config_echo.json` of `echo` (none if `echo` is None)."""
    if echo is not None:
        (tmp_path / "config_echo.json").write_text(json.dumps(echo))
    return tmp_path / name


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
    # previews of the first test frame: one RGB PPM of the class channels
    for name in ("pred", "gt"):
        assert sorted(p.name for p in out.glob(f"{name}_*")) == [
            f"{name}_ssl_s0_rgb.ppm"]
    assert (out / "gt_ssl_s0_rgb.ppm").read_bytes().startswith(
        b"P6\n32 96\n255\n")
    ckpt = sorted(out.glob("run_*.ckpt"))[0]

    out_eval = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--out", str(out_eval)]) == 0
    doc = json.loads((out_eval / "eval.json").read_text())
    assert sorted(doc) == ["seed", "test", "val", "variant"]
    assert (doc["variant"], doc["seed"]) == ("ssl", 0)
    assert all(0.0 <= doc[split]["miou"] <= 1.0 for split in ("val", "test"))
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"{split} mIoU {doc[split]['miou']:.4f}" for split in ("val", "test")]


def test_eval_scores_each_checkpoint_of_a_grid_as_its_run(tmp_path):
    """Each checkpoint of a 2-seed label sweep is its run's best-on-val
    weights, so eval reproduces that run's rows of `metrics.csv`."""
    doc = {**TINY_DOC, "kind": "label-sweep",
           "eval": {"seeds": [0, 1], "sweep_utilisations": [0.5, 1.0]}}
    out = tmp_path / "sweep"
    assert main(["train", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "metrics.csv").read_text().splitlines()[1:]]
    ckpts = sorted(out.glob("run_*.ckpt"))
    assert len(ckpts) == 3 * 2
    for ckpt in ckpts:
        out_eval = tmp_path / "eval" / ckpt.stem
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--out", str(out_eval)]) == 0
        got = json.loads((out_eval / "eval.json").read_text())
        assert ckpt.name == f"run_{got['variant']}_s{got['seed']}.ckpt"
        for split in ("val", "test"):
            run = {r[5]: r for r in rows if r[1] == got["variant"]
                   and r[2] == str(got["seed"]) and r[4] == split}
            assert got[split]["miou"] == float(run["all"][7]), (ckpt, split)
            assert got[split]["per_class"] == {
                name: None if r[6] == "" else float(r[6])
                for name, r in run.items() if name != "all"}, (ckpt, split)


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


UNKNOWN = "unknown config keys"

# removed spellings, with the part of the message that names the spelling
# that stays: values whose runs were byte-identical to another spelling's,
# `ssl.confidence`, and the keys of values that no run varied, now fixed,
# whose one spelling is to leave them out (whatever the value, even the
# fixed one, or one of the wrong type)
REMOVED_SPELLINGS = {
    "temperature_with_hard": ("ssl", {"temperature": 0.5, "hard": True},
                              "None when ssl.hard is true"),
    "threshold_0.5": ("ssl", {"threshold": 0.5}, "or None to keep every cell"),
    "fusion_extra_0": ("ssl", {"fusion_extra": 0}, 'fusion_mode "none"'),
    "confidence_removed": ("ssl", {"confidence": "positive"}, UNKNOWN),
    "seqs_per_world_0": ("world", {"seqs_per_world": 0}, UNKNOWN),
    "speed_min_neg": ("world", {"speed_min": -1.0}, UNKNOWN),
    "speed_max_str": ("world", {"speed_max": "12"}, UNKNOWN),
    "speed_min_gt_max": ("world", {"speed_min": 5.0, "speed_max": 1.0},
                         UNKNOWN),
    "gain_range_str": ("augment", {"gain_range": ["a", "b"]}, UNKNOWN),
    "bias_range_fixed": ("augment", {"bias_range": [-0.1, 0.1]}, UNKNOWN),
    "channel_swap_prob_fixed": ("augment", {"channel_swap_prob": 0.2},
                                UNKNOWN),
    "cutout_fraction_0": ("augment", {"cutout_fraction": 0}, UNKNOWN),
    "camdrop_count_bool": ("augment", {"camdrop_count": True}, UNKNOWN),
    "bevdrop_rate_0": ("augment", {"bevdrop_rate": 0}, UNKNOWN),
    "rampup_fraction_0": ("ssl", {"rampup_fraction": 0}, UNKNOWN),
    "focal_gamma_neg": ("train", {"focal_gamma": -1}, UNKNOWN),
    "focal_alpha_above_1": ("train", {"focal_alpha": 1.5}, UNKNOWN),
    "adapt_target_style": ("eval", {"adapt_target_style": "city_B"}, UNKNOWN),
    "adapt_source_worlds_0": ("eval", {"adapt_source_worlds": 0}, UNKNOWN),
}


@pytest.mark.parametrize("section,values", [
    ("world", {"grid_preset": "huge"}), ("world", {"style": "city_Z"}),
    ("train", {"eval_every": 0}),
    ("train", {"total_steps": "5"}), ("train", {"eval_model": "techer"}),
    ("train", {"supervised_augment": "sme"}), ("world", {"n_frames": True}),
    ("train", {"total_steps": 0}),
    ("world", {"utilisation": "0.5"}),
    ("train", {"lr": "0.003"}), ("train", {"wd": True}),
    ("train", {"ema_keep": "0.99"}), ("augment", {"photometric": "no"}),
    ("model", {"kernel_size": 3.0}),
    ("ssl", {"hard": "yes"}), ("ssl", {"fusion_extra": 2.5}),
    ("eval", {"seeds": ["0"]}), ("eval", {"seeds": []}),
    ("world", {"utilisation": 2.0}), ("world", {"utilisation": 0.0}),
    ("eval", {"sweep_utilisations": [0.5, 0.0]}),
    ("eval", {"sweep_utilisations": [1.5]}),
    ("train", {"batch_labelled": 0}), ("world", {"n_worlds": 3}),
    ("model", {"obs_channels": 4}), ("train", {"batch_unlabelled": 0}),
    ("train", {"batch_unlabelled": -1}), ("world", {"n_frames": 0}),
    ("world", {"val_worlds": -1}),
    ("world", {"test_worlds": 0}), ("eval", {"sweep_utilisations": []}),
    ("eval", {"adapt_unlabelled_counts": []}),
    ("eval", {"adapt_unlabelled_counts": [0, -1]}), ("train", {"lr": -1}),
    ("train", {"wd": -1e-4}), ("train", {"beta1": 1.0}),
    ("train", {"beta2": -0.1}), ("train", {"ema_keep": 5.0}),
    ("eval", {"seeds": [0, 0]}),
    ("eval", {"sweep_utilisations": [0.5, 0.5]}),
    ("eval", {"sweep_utilisations": [0.1, 0.1000001]}),
    ("eval", {"adapt_unlabelled_counts": [0, 8, 8]}),
    ("eval", {"adapt_unlabelled_counts": [0]}),
    ("ssl", {"w_cls": -1}),
    ("ssl", {"feat_mode": "l1"}), ("ssl", {"feat_level": "mid"}),
    *(row[:2] for row in REMOVED_SPELLINGS.values())],
    ids=["grid_preset", "style", "eval_every",
         "total_steps", "eval_model", "supervised_augment", "bool_as_int",
         "total_steps_zero", "utilisation_str", "lr_str",
         "wd_bool", "ema_keep_str", "photometric_str",
         "kernel_size_float", "hard_str",
         "fusion_extra_float", "seeds_str", "seeds_empty",
         "utilisation_above_1", "utilisation_0", "sweep_utilisation_0",
         "sweep_utilisation_above_1", "batch_labelled_0", "n_worlds_short",
         "obs_channels_4", "batch_unlabelled_0", "batch_unlabelled_neg",
         "n_frames_0", "val_worlds_neg", "test_worlds_0",
         "sweep_utilisations_empty", "adapt_counts_empty",
         "adapt_count_neg", "lr_neg", "wd_neg", "beta1_1", "beta2_neg",
         "ema_keep_5", "seeds_repeated",
         "sweep_utilisations_repeated", "sweep_utilisations_print_alike",
         "adapt_counts_repeated", "adapt_counts_only_0",
         "w_cls_neg", "feat_mode_l1", "feat_level_mid",
         *REMOVED_SPELLINGS])
def test_bad_value_exits_2_at_load(tmp_path, capsys, section, values):
    doc = {**TINY_DOC, section: {**TINY_DOC.get(section, {}), **values}}
    assert main(["train", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(f"{section}.{key}" in err for key in values)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", REMOVED_SPELLINGS)
def test_removed_spelling_names_the_one_that_stays(tmp_path, capsys, name):
    section, values, stays = REMOVED_SPELLINGS[name]
    doc = {**TINY_DOC, section: {**TINY_DOC.get(section, {}), **values}}
    err = _rejected_at_load(tmp_path, capsys, ["train"],
                            _write_cfg(tmp_path, doc))
    assert stays in err, err


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
    ("ssl", {"temperature": NAN}), ("train", {"beta2": NAN}),
    ("world", {"utilisation": NAN}), ("train", {"ema_keep": NAN}),
    ("train", {"lr": INF}), ("ssl", {"w_cls": INF}),
    ("train", {"wd": -INF}), ("eval", {"sweep_utilisations": [NAN, 1.0]})],
    ids=["fusion_max_range_nan", "w_feat_nan", "temperature_nan",
         "beta2_nan", "utilisation_nan", "ema_keep_nan", "lr_inf",
         "w_cls_inf", "wd_neg_inf", "sweep_utilisation_nan"])
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


def test_adapt_needs_a_train_world_like_every_kind(tmp_path, capsys):
    """City adaptation reads no `world.n_worlds`, but its world section
    meets the world-count rule of every kind."""
    doc = {**TINY_DOC, "kind": "city-adapt",
           "world": {"n_worlds": 2, "val_worlds": 1, "test_worlds": 1}}
    err = _rejected_at_load(tmp_path, capsys, ["train"],
                            _write_cfg(tmp_path, doc))
    assert "world.n_worlds must be >= 1 val + 1 test + 1 train worlds" in err


# a name given twice, which would drop the first `ssl` section or keep the
# last of two values
@pytest.mark.parametrize("head,key", [
    ('"ssl": {"w_feat": 0.5}, "ssl": {"threshold": 0.7}', "ssl"),
    ('"ssl": {"w_feat": 0.5, "w_feat": 0.25}', "w_feat")],
    ids=["section", "key"])
def test_a_repeated_config_name_exits_2(tmp_path, capsys, head, key):
    path = tmp_path / "cfg.json"
    path.write_text("{" + head + ", " + json.dumps(TINY_DOC)[1:])
    err = _rejected_at_load(tmp_path, capsys, ["train"], path)
    assert f"config key '{key}' is given twice" in err


def _eval_rejected(tmp_path, capsys, ckpt):
    assert main(["eval", "--checkpoint", str(ckpt), "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert not (tmp_path / "x").exists()
    return err


def _best_entries():
    """A whole set of `best.` weights for TINY_DOC's model."""
    params = init_params(config_from_dict(TINY_DOC).model, 0)
    return {f"best.{k}": p.values for k, p in params.items()}


def test_a_repeated_checkpoint_entry_exits_2(tmp_path, capsys):
    path = _run_checkpoint(tmp_path)
    best = _best_entries()
    whole, again = tmp_path / "whole.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(whole, best)
    save_checkpoint(again, {"best.head.b": best["best.head.b"] + 1.0})
    path.write_bytes(whole.read_bytes() + again.read_bytes()[8:])
    err = _eval_rejected(tmp_path, capsys, path)
    assert "holds the entry 'best.head.b' twice" in err


def test_partial_checkpoint_exits_2(tmp_path, capsys):
    path = _run_checkpoint(tmp_path)
    save_checkpoint(path, {"best.head.b": np.zeros(3)})
    assert "configuration error:" in _eval_rejected(tmp_path, capsys, path)


def test_checkpoint_without_best_entries_exits_2(tmp_path, capsys):
    # every parameter of the model, but not under `best.`
    path = _run_checkpoint(tmp_path)
    save_checkpoint(path, {k[len("best."):]: v
                           for k, v in _best_entries().items()})
    err = _eval_rejected(tmp_path, capsys, path)
    assert "lacks parameters" in err


# a checkpoint whose name is no run of the echo beside it, or that has no
# echo beside it: a valid set of `best.` weights all the same
@pytest.mark.parametrize("name,echo", [
    ("run_ssl_s7.ckpt", TINY_DOC), ("best.ckpt", TINY_DOC),
    ("run_ssl_s1.ckpt", TINY_DOC),
    ("run_supervised_s0.ckpt", TINY_DOC), ("run_ssl_s0.ckpt", None)],
    ids=["renamed_seed", "renamed", "seed_not_in_echo", "variant_not_in_echo",
         "no_echo"])
def test_checkpoint_that_is_no_run_of_its_echo_exits_2(tmp_path, capsys,
                                                       name, echo):
    path = _run_checkpoint(tmp_path, name, echo)
    save_checkpoint(path, _best_entries())
    err = _eval_rejected(tmp_path, capsys, path)
    echo_path = tmp_path / "config_echo.json"
    if echo is None:
        assert f"cannot read config {echo_path}" in err
    else:
        assert f"checkpoint {path} names no run of {echo_path}" in err


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


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    path = _run_checkpoint(tmp_path)
    save_checkpoint(path, {"best.head.b": np.zeros(3)})
    path.write_bytes(path.read_bytes()[:-4])
    assert "configuration error:" in _eval_rejected(tmp_path, capsys, path)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, kind):
    path = (tmp_path / "input" if command == "train"
            else _run_checkpoint(tmp_path))
    if kind == "directory":
        path.mkdir()
    flag = "--config" if command == "train" else "--checkpoint"
    assert main([command, flag, str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    what = "config" if command == "train" else "checkpoint"
    assert err.startswith(f"configuration error: cannot read {what} {path}")
    assert err.count("\n") == 1   # one line, no traceback
    assert not (tmp_path / "x").exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert main(["gen-world", "--seed", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")


def test_adapt_writes_one_variant_per_target_count(tmp_path):
    doc = {**TINY_DOC, "kind": "city-adapt",
           "world": {"n_frames": 3, "val_worlds": 1, "test_worlds": 1},
           "train": {"total_steps": 4, "eval_every": 2},
           "eval": {"seeds": [0], "adapt_unlabelled_counts": [0, 2]}}
    out = tmp_path / "adapt"
    assert main(["train", "--config", str(_write_cfg(tmp_path, doc)),
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(r.split(",")[1] for r in rows)) \
        == ["adapt@0", "adapt@2", "adapt@oracle"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--threads", threads,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# every subcommand and its flags: a run's settings are its config file
CLI_SURFACE = {
    "gen-world": ["--seed", "--style", "--out"],
    "train": ["--config", "--out", "--threads"],
    "eval": ["--checkpoint", "--out"],
}


def test_cli_surface_is_pinned():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    surface = {name: [flag for a in parser._actions
                      for flag in a.option_strings if flag not in
                      ("-h", "--help")]
               for name, parser in sub.choices.items()}
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("argv", [
    ["ablate", "--scenario", "components", "--config", "CFG"],
    ["adapt", "--config", "CFG"],
    ["train", "--config", "CFG", "--preset", "small"],
    ["train", "--config", "CFG", "--seed", "1"],
    ["eval", "--checkpoint", "run.ckpt", "--threads", "2"],
    ["eval", "--checkpoint", "run.ckpt", "--config", "CFG"],
    ["eval", "--checkpoint", "run.ckpt", "--seed", "1"],
    ["eval", "--checkpoint", "run.ckpt", "--split", "val"]],
    ids=["ablate", "adapt", "train_preset", "train_seed", "eval_threads",
         "eval_config", "eval_seed", "eval_split"])
def test_removed_flag_or_subcommand_exits_2(tmp_path, capsys, argv):
    cfg = str(_write_cfg(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main([cfg if a == "CFG" else a for a in argv]
             + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "usage: bevssl" in capsys.readouterr().err
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
             "eval": {"seeds": [0], "adapt_unlabelled_counts": [0, 2]}}


@pytest.mark.parametrize("kind", ["ssl", "fusion-frames", "city-adapt"],
                         ids=["train", "ablate", "adapt"])
def test_config_echo_reruns_the_same_runs(tmp_path, kind):
    out, again = tmp_path / "out", tmp_path / "again"
    cfg = _write_cfg(tmp_path, {**RERUN_DOC, "kind": kind})
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(out / "config_echo.json"),
                 "--out", str(again)]) == 0
    ckpts = sorted(p.name for p in out.glob("run_*.ckpt"))
    assert ckpts == sorted(p.name for p in again.glob("run_*.ckpt"))
    for name in ["metrics.csv", "aggregates.json", *ckpts]:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
