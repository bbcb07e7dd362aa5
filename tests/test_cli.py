import collections
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from skipdiff import cli, exploiter, training
from skipdiff.checkpoint import load_checkpoint
from skipdiff.data import load_jsonl_fields
from skipdiff.cli import main
from skipdiff.errors import JsonlParseError
from skipdiff.workers import WorkerPool
from tabledata import QQP_BLOCK, QQP_MEAN_RANK


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A minimal but complete training run shared by the CLI tests."""
    out = str(tmp_path_factory.mktemp("run"))
    code = run_cli(
        "train", "--task", "copy", "--out", out, "--seed", "7",
        "--epochs", "2", "--T", "8",
        "--set", "model_dim=16", "--set", "heads=2", "--set", "layers=1",
        "--set", "max_len=10", "--set", "vocab_size=6", "--set", "len_min=1",
        "--set", "len_max=3", "--set", "train_size=16",
        "--set", "heldout_size=4", "--set", "total_batch=8",
        "--set", "exploration_epochs=2", "--set", "period=1",
        "--set", "gen_steps=4", "--set", "eval_every=0",
        "--set", "ffn_mult=2", "--set", "sched_hidden=8")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def src_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "src.jsonl"
    rows = [{"src": "w00 w01", "trg": "w00 w01"},
            {"src": "w02", "trg": "w02"},
            {"src": "w03 w04 w05", "trg": "w03 w04 w05"}]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def test_train_epoch_zero_writes_init_checkpoints(tmp_path):
    out = str(tmp_path / "run0")
    code = run_cli(
        "train", "--task", "copy", "--out", out, "--seed", "1",
        "--epochs", "0", "--T", "8",
        "--set", "model_dim=16", "--set", "heads=2", "--set", "layers=1",
        "--set", "max_len=10", "--set", "vocab_size=6", "--set", "len_min=1",
        "--set", "len_max=3", "--set", "train_size=8",
        "--set", "heldout_size=2", "--set", "total_batch=8",
        "--set", "exploration_epochs=2", "--set", "ffn_mult=2",
        "--set", "sched_hidden=8")
    assert code == 0
    assert os.path.exists(os.path.join(out, "config.resolved"))
    assert os.path.exists(os.path.join(out, "checkpoints", "exploiter-0.bin"))
    assert os.path.exists(os.path.join(out, "checkpoints", "scheduler-0.bin"))
    assert os.path.exists(os.path.join(out, "log.jsonl"))


def test_train_determinism_same_seed(tmp_path):
    args = ["train", "--task", "reverse", "--seed", "3",
            "--epochs", "2", "--T", "8",
            "--set", "model_dim=16", "--set", "heads=2", "--set", "layers=1",
            "--set", "max_len=10", "--set", "vocab_size=6",
            "--set", "len_min=1", "--set", "len_max=3",
            "--set", "train_size=16", "--set", "heldout_size=4",
            "--set", "total_batch=8", "--set", "exploration_epochs=2",
            "--set", "period=1", "--set", "gen_steps=4",
            "--set", "eval_every=1", "--set", "eval_mbr=1",
            "--set", "ffn_mult=2", "--set", "sched_hidden=8"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    log_a = open(os.path.join(out_a, "log.jsonl"), "rb").read()
    log_b = open(os.path.join(out_b, "log.jsonl"), "rb").read()
    assert log_a == log_b
    cfg_a = open(os.path.join(out_a, "config.resolved"), "rb").read()
    assert cfg_a == open(os.path.join(out_b, "config.resolved"), "rb").read()


def test_train_from_config_file_deterministic(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# toy settings\n"
        "task=sort\nmodel_dim=16\nheads=2\nlayers=1\nT=8\nmax_len=10\n"
        "vocab_size=6\nlen_min=1\nlen_max=3\ntrain_size=16\nheldout_size=4\n"
        "total_batch=8\nexploration_epochs=2\nperiod=1\ngen_steps=4\n"
        "eval_every=0\nffn_mult=2\nsched_hidden=8\nepochs=2\n")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("train", "--config", str(cfg), "--seed", "7", "--out", out_a) == 0
    assert run_cli("train", "--config", str(cfg), "--seed", "7", "--out", out_b) == 0
    log_a = open(os.path.join(out_a, "log.jsonl"), "rb").read()
    assert log_a == open(os.path.join(out_b, "log.jsonl"), "rb").read()
    resolved = open(os.path.join(out_a, "config.resolved")).read()
    assert "task=sort" in resolved and "seed=7" in resolved


@pytest.mark.parametrize("setting", ["nonsense_key=3", "rounding_loss=maybe",
                                     "T=abc", "T", "mbr=3"])
def test_unknown_config_key_rejected(tmp_path, setting):
    out = tmp_path / "x"
    code = run_cli("train", "--task", "copy", "--out", str(out), "--set", setting)
    assert code == 2
    assert not out.exists()


def test_train_with_the_char_tokenizer_builds_a_character_vocabulary(tmp_path):
    data = tmp_path / "train.jsonl"
    data.write_text('{"src": "ab ca", "trg": "ab"}\n{"src": "bc", "trg": "cb"}\n')
    out = tmp_path / "run"
    small = ["tokenizer=char", "model_dim=16", "heads=2", "layers=1", "T=8",
             "max_len=10", "total_batch=2", "exploration_epochs=2", "ffn_mult=2",
             "sched_hidden=8", "epochs=0"]
    argv = [arg for text in small for arg in ("--set", text)]
    assert run_cli("train", "--data", str(data), "--out", str(out), *argv) == 0
    for kind in ("exploiter", "scheduler"):
        ckpt = load_checkpoint(out / "checkpoints" / f"{kind}-0.bin")
        assert sorted(ckpt.vocab_tokens) == [" ", "a", "b", "c"]


@pytest.mark.parametrize("flag", ["--data", "--val-data"])
def test_train_with_a_pair_too_long_exits_2_naming_it_before_writing(tmp_path, capsys,
                                                                   flag):
    fits = tmp_path / "fits.jsonl"
    fits.write_text('{"src": "a b", "trg": "b a"}\n' * 3)
    # under max_len 12 a 12-token source leaves no room: as a training pair
    # it needs 16 positions, as a held-out pair 14
    long = tmp_path / "long.jsonl"
    long.write_text('{"src": "a b", "trg": "b a"}\n{"src": "%s", "trg": "a b"}\n'
                    % " ".join(["a"] * 12))
    out = tmp_path / "run"
    files = {"--data": str(fits), "--val-data": str(fits), flag: str(long)}
    small = ["model_dim=16", "heads=2", "layers=1", "T=8", "max_len=12",
             "total_batch=2", "exploration_epochs=2", "ffn_mult=2",
             "sched_hidden=8", "epochs=1", "gen_steps=4"]
    argv = [arg for text in small for arg in ("--set", text)]
    assert run_cli("train", *[a for item in files.items() for a in item],
                   "--out", str(out), *argv) == 2
    needed = 16 if flag == "--data" else 14
    assert (f"{long}: pair 2 needs {needed} positions but max_len is 12"
            in capsys.readouterr().err)
    assert not out.exists()


def test_char_generations_read_back_as_generated(tmp_path, monkeypatch):
    # Spaces are tokens of their own. A decoded marker such as <sep> has no
    # one-character spelling, so the model is trained until it writes none.
    rows = [("ab ca", "ab"), ("bc", "cb"), ("ca b", "ba"), ("a c", "ca")]
    data, src = tmp_path / "train.jsonl", tmp_path / "src.jsonl"
    data.write_text("".join(json.dumps({"src": s, "trg": t}) + "\n" for s, t in rows))
    src.write_text("".join(json.dumps({"src": s}) + "\n" for s, _ in rows))
    small = ["tokenizer=char", "model_dim=16", "heads=2", "layers=1", "T=8",
             "max_len=12", "total_batch=4", "ffn_mult=2", "sched_hidden=8",
             "epochs=60"]
    argv = [arg for text in small for arg in ("--set", text)]
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "run"),
                   "--fixed-sqrt", *argv) == 0
    generated = []
    real = cli.plug_and_play_generate
    monkeypatch.setattr(cli, "plug_and_play_generate",
                        lambda *args: generated.extend(real(*args)) or generated)
    out = tmp_path / "gen.jsonl"
    assert run_cli("generate", "--exploiter",
                   str(tmp_path / "run" / "checkpoints" / "exploiter-final.bin"),
                   "--fixed-sqrt", "--src", str(src), "--out", str(out),
                   "--tokenizer", "char", "--mbr", "2", "--steps", "4") == 0
    [(picks, candidates)] = generated
    tokens = [t for row in candidates for cand in row for t in cand]
    assert " " in tokens and all(len(t) == 1 for t in tokens)
    srcs, gens = load_jsonl_fields(out, ("src", "gen"), "char")
    assert srcs == [list(s) for s, _ in rows]
    assert gens == picks
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert [[list(c) for c in row["candidates"]] for row in written] == candidates


def test_train_has_no_mbr_flag(tmp_path):
    # the candidate count is generate's --mbr; evaluations inside train use eval_mbr
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--task", "copy", "--out", str(out), "--mbr", "3")
    assert exc.value.code == 2
    assert not out.exists()


def test_unknown_config_file_key_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("not_a_key=1\n")
    code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 2


def test_generate_single_candidate_written_unchanged(tiny_run, src_file, tmp_path):
    out = str(tmp_path / "gen.jsonl")
    code = run_cli("generate",
                   "--exploiter", os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--src", src_file, "--out", out, "--mbr", "1",
                   "--steps", "4", "--seed", "5")
    assert code == 0
    rows = [json.loads(line) for line in open(out)]
    assert len(rows) == 3
    for row in rows:
        assert row["candidates"] == [row["gen"]]


def test_generate_deterministic_output_file(tiny_run, src_file, tmp_path):
    outs = []
    for name in ("g1.jsonl", "g2.jsonl"):
        out = str(tmp_path / name)
        code = run_cli("generate",
                       "--exploiter", os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
                       "--fixed-sqrt", "--src", src_file, "--out", out,
                       "--mbr", "3", "--steps", "4", "--seed", "9")
        assert code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_generate_requires_schedule_choice(tiny_run, src_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("generate",
                "--exploiter", os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
                "--src", src_file, "--out", str(tmp_path / "x.jsonl"))


def test_evaluate_identity_scores_one(tmp_path, src_file):
    gen = tmp_path / "gen.jsonl"
    with open(src_file) as fh:
        rows = [json.loads(line) for line in fh]
    gen.write_text("".join(json.dumps({"src": r["src"], "gen": r["trg"]}) + "\n"
                           for r in rows))
    out = str(tmp_path / "report.json")
    code = run_cli("evaluate", "--gen", str(gen), "--ref", src_file, "--out", out)
    assert code == 0
    report = json.loads(open(out).read())
    assert report["BLEU"] == pytest.approx(1.0)
    assert report["ROUGE-L"] == pytest.approx(1.0)


@pytest.mark.parametrize("options", [[], ["--gen", "{src}"], ["--ref", "{src}"]],
                         ids=["no-options", "gen-only", "ref-only"])
def test_evaluate_needs_systems_or_gen_and_ref(src_file, capsys, options):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *[option.format(src=src_file) for option in options])
    assert exc.value.code == 2
    assert "evaluate needs --systems, or both --gen and --ref" in capsys.readouterr().err


def test_evaluate_misaligned_rejected(tmp_path, src_file):
    short = tmp_path / "short.jsonl"
    short.write_text('{"src": "a", "trg": "a"}\n')
    assert run_cli("evaluate", "--gen", src_file, "--ref", str(short)) == 2


@pytest.mark.parametrize("argv, lines, bad_line", [
    pytest.param(["evaluate", "--gen", "{bad}", "--ref", "{src}"],
                 ['{"src": "w00", "trg": "w00"}'], 1, id="evaluate-gen-without-gen"),
    pytest.param(["evaluate", "--gen", "{gen}", "--ref", "{bad}"],
                 ['{"trg": "w00"}', "not json"], 2, id="evaluate-ref-not-json"),
    pytest.param(["analyze-difficulty", "--gen", "{bad}", "--scheduler", "{scheduler}",
                  "--k", "1", "--out", "{tmp}/x.csv"],
                 ['{"src": "w00", "ref": "w00"}'], 1, id="analyze-without-gen"),
    pytest.param(["generate", "--exploiter", "{exploiter}", "--scheduler", "{scheduler}",
                  "--src", "{bad}", "--out", "{tmp}/x.jsonl"],
                 ['{"src": "w00"}', '{"src": 5}'], 2, id="generate-src-not-string"),
    pytest.param(["export-schedule", "--scheduler", "{scheduler}", "--src", "{bad}",
                  "--out", "{tmp}/x.csv"],
                 ['{"src": "w00"}', '{"src": 5}'], 2, id="export-src-not-string"),
    pytest.param(["train", "--data", "{bad}", "--out", "{tmp}/run"],
                 ['{"src": "w00", "trg": "w00"}', '{"src": "w00 <sep> w01", "trg": "w01"}'],
                 2, id="train-data-reserved-token"),
    pytest.param(["generate", "--exploiter", "{exploiter}", "--scheduler", "{scheduler}",
                  "--src", "{bad}", "--out", "{tmp}/x.jsonl"],
                 ['{"src": "w00"}', '{"src": "w01 <sep> w02"}'], 2,
                 id="generate-src-reserved-token"),
])
def test_malformed_jsonl_names_file_and_line(tiny_run, src_file, tmp_path, capsys,
                                             argv, lines, bad_line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"gen": "w00"}\n{"gen": "w01"}\n')
    paths = {"bad": bad, "gen": gen, "src": src_file, "tmp": tmp_path,
             "scheduler": os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
             "exploiter": os.path.join(tiny_run, "checkpoints", "exploiter-final.bin")}
    assert run_cli(*[arg.format(**paths) for arg in argv]) == 2
    assert f"{bad}:{bad_line}: " in capsys.readouterr().err


def test_evaluate_systems_reproduces_published_ranks(tmp_path, capsys):
    csv_path = tmp_path / "systems.csv"
    lines = ["method,metric,value"]
    for method, row in QQP_BLOCK.items():
        for metric, value in row.items():
            lines.append(f"{method},{metric},{'' if value is None else value}")
    csv_path.write_text("\n".join(lines) + "\n")
    rank_csv = tmp_path / "ranks.csv"
    code = run_cli("evaluate", "--systems", str(csv_path),
                   "--rank-csv", str(rank_csv))
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    for method, expected in QQP_MEAN_RANK.items():
        assert printed["Mean-Rank"][method] == pytest.approx(expected, abs=0.005)
    assert rank_csv.exists()


@pytest.mark.parametrize("row", ["good,BLEU", "good,BLEU,abc", "good,BLEU,nan"])
def test_systems_csv_errors_name_file_and_line(tmp_path, capsys, row):
    csv_path = tmp_path / "systems.csv"
    csv_path.write_text(f"method,metric,value\nbad,BLEU,0.5\n\n{row}\n")
    assert run_cli("evaluate", "--systems", str(csv_path)) == 2
    assert f"error: {csv_path}:4: " in capsys.readouterr().err


def test_systems_csv_duplicate_score_names_both_lines(tmp_path, capsys):
    csv_path = tmp_path / "systems.csv"
    csv_path.write_text("method,metric,value\nA,BLEU,0.3\nB,BLEU,0.2\nA,BLEU,0.1\n")
    assert run_cli("evaluate", "--systems", str(csv_path)) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path}:4: duplicate score for method 'A', metric 'BLEU' "
        "(first on line 2)\n")


def test_evaluate_two_system_dominance(tmp_path, capsys):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("method,metric,value\n"
                        "good,BLEU,0.9\ngood,Self-BLEU,0.1\n"
                        "bad,BLEU,0.5\nbad,Self-BLEU,0.7\n")
    assert run_cli("evaluate", "--systems", str(csv_path)) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["Mean-Rank"]["good"] == pytest.approx(1.0)
    assert printed["Mean-Rank"]["bad"] == pytest.approx(2.0)


def test_analyze_difficulty(tiny_run, tmp_path, capsys):
    gen = tmp_path / "gen.jsonl"
    rows = [{"src": "w00 w01", "gen": "w00 w01", "ref": "w00 w01"},
            {"src": "w02 w03", "gen": "w05 w04", "ref": "w02 w03"},
            {"src": "w01 w02", "gen": "w01 w05", "ref": "w01 w02"},
            {"src": "w03", "gen": "w03", "ref": "w03"}]
    with open(gen, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    out = tmp_path / "difficulty.csv"
    code = run_cli("analyze-difficulty", "--gen", str(gen),
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--k", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,mean_beta_hard,mean_beta_easy"
    assert len(lines) == 9  # T=8 steps
    printed = capsys.readouterr().out
    summary = json.loads(printed[printed.index("{"):printed.rindex("}") + 1])
    # the hard bucket holds the zero-overlap generation
    assert summary["hard"]["mean_bleu"] < summary["easy"]["mean_bleu"]
    assert float(lines[1].split(",")[1]) > 0.0


def test_analyze_difficulty_k_too_large(tiny_run, tmp_path):
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"src": "w00", "gen": "w00", "ref": "w00"}\n'
                   '{"src": "w01", "gen": "w01", "ref": "w01"}\n')
    code = run_cli("analyze-difficulty", "--gen", str(gen),
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--k", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 2


@pytest.mark.parametrize("k", ["-2", "0"])
def test_analyze_difficulty_k_below_one(tiny_run, tmp_path, capsys, k):
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"src": "w00", "gen": "w00", "ref": "w00"}\n'
                   '{"src": "w01", "gen": "w01", "ref": "w01"}\n')
    out = tmp_path / "x.csv"
    code = run_cli("analyze-difficulty", "--gen", str(gen),
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--k", k, "--out", str(out))
    assert code == 2
    assert f"error: --k {k} is outside 1..1" in capsys.readouterr().err
    assert not out.exists()


def test_plug_and_play_command(tiny_run, src_file, tmp_path, capsys):
    out = str(tmp_path / "pp.jsonl")
    report = str(tmp_path / "pp-report.json")
    code = run_cli("plug-and-play",
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--exploiter", os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
                   "--src", src_file, "--ref", src_file, "--out", out,
                   "--report", report, "--steps", "4", "--seed", "3")
    assert code == 0
    data = json.loads(open(report).read())
    assert "scheduler" in data and "fixed-sqrt" in data
    assert "BLEU" in data["scheduler"]


def test_export_schedule_single_sentence_mean_equals_row(tiny_run, tmp_path):
    src = tmp_path / "one.jsonl"
    src.write_text('{"src": "w00 w01"}\n')
    out = tmp_path / "sched.csv"
    code = run_cli("export-schedule",
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--src", str(src), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sentence,t,pointer,beta_pointer,alpha_bar_x,beta_eff"
    rows = [line.split(",") for line in lines[1:]]
    sentence_rows = [r for r in rows if r[0] == "0"]
    mean_rows = [r for r in rows if r[0] == "mean"]
    assert len(sentence_rows) == len(mean_rows) == 8
    for a, b in zip(sentence_rows, mean_rows):
        assert float(a[2]) == pytest.approx(float(b[2]))
        assert float(a[3]) == pytest.approx(float(b[3]))


def test_export_schedule_mean_is_columnwise_average(tiny_run, src_file, tmp_path):
    out = tmp_path / "sched.csv"
    assert run_cli("export-schedule",
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--src", src_file, "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()[1:]
    per_sentence = {}
    means = {}
    for line in lines:
        parts = line.split(",")
        t = int(parts[1])
        if parts[0] == "mean":
            means[t] = float(parts[3])
        else:
            per_sentence.setdefault(t, []).append(float(parts[3]))
    for t, vals in per_sentence.items():
        assert means[t] == pytest.approx(np.mean(vals))


def rewrite_header(src, dst, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its header."""
    raw = open(src, "rb").read()
    n = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + n])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode()
    with open(dst, "wb") as fh:
        fh.write(raw[:8] + len(text).to_bytes(8, "little") + text + raw[16 + n:])


@pytest.mark.parametrize("kind, edit, message", [
    ("scheduler", lambda h: h.pop("blobs"), "checkpoint header needs 'blobs' as a list"),
    ("scheduler", lambda h: h["config"].update(bogus=1),
     "bad scheduler checkpoint config: "),
    ("scheduler", lambda h: h["config"].update(hidden_dim=0),
     "bad scheduler checkpoint config: hidden_dim must be >= 1, got 0"),
    ("scheduler", lambda h: h["config"].update(hidden_dim=4),
     "weight 'dec.b' has shape (32,), its config gives (16,)"),
    ("scheduler", lambda h: h["vocab"].pop(),
     "weight 'tok_emb' has shape (10, 16), its config gives (9, 16)"),
    ("exploiter", lambda h: h["config"].update(bogus=1),
     "bad exploiter checkpoint config: "),
    ("exploiter", lambda h: h["config"].update(layers=2),
     "weight 'block1.attn.bo' has shape None, its config gives (16,)"),
    ("exploiter", lambda h: h.update(kind="scheduler"),
     "a 'scheduler' checkpoint, expected 'exploiter'"),
], ids=["no-blobs", "scheduler-unknown-key", "scheduler-range", "scheduler-shape",
        "vocab-size",
        "exploiter-unknown-key", "exploiter-missing-weights", "wrong-kind"])
def test_bad_checkpoint_contents_exit_2_naming_the_path(tiny_run, src_file, tmp_path,
                                                        capsys, kind, edit, message):
    bad = str(tmp_path / f"{kind}.bin")
    rewrite_header(os.path.join(tiny_run, "checkpoints", f"{kind}-final.bin"), bad, edit)
    ckpts = {"exploiter": os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
             "scheduler": os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
             kind: bad}
    code = run_cli("generate", "--exploiter", ckpts["exploiter"],
                   "--scheduler", ckpts["scheduler"], "--src", src_file,
                   "--out", str(tmp_path / "gen.jsonl"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert not os.path.exists(tmp_path / "gen.jsonl")
    if kind == "scheduler":
        assert run_cli("export-schedule", "--scheduler", bad, "--src", src_file,
                       "--out", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


def test_analyze_difficulty_ties_fill_disjoint_buckets(tiny_run, tmp_path,
                                                      monkeypatch):
    # four exact generations: every score is BLEU 1.0
    srcs = ["w00 w01 w02 w03", "w01 w02 w03 w04", "w02 w03 w04 w05",
            "w03 w04 w05 w00"]
    gen = tmp_path / "gen.jsonl"
    gen.write_text("".join(json.dumps({"src": s, "gen": s, "ref": s}) + "\n"
                           for s in srcs))
    rolled = []
    real = cli._greedy_schedules

    def recording(path, rows):
        rolled.extend(srcs.index(" ".join(row)) for row in rows)
        return real(path, rows)

    monkeypatch.setattr(cli, "_greedy_schedules", recording)
    code = run_cli("analyze-difficulty", "--gen", str(gen),
                   "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
                   "--k", "2", "--out", str(tmp_path / "d.csv"))
    assert code == 0
    assert set(rolled[:2]) == {0, 1}
    assert set(rolled[2:]) == {2, 3}


@pytest.mark.parametrize("with_ref", [False, True])
def test_plug_and_play_loads_each_checkpoint_once(tiny_run, src_file, tmp_path,
                                                  monkeypatch, with_ref):
    loads = collections.Counter()
    generations = []
    real_load, real_generate = training.load_checkpoint, training.generate_with_mbr

    def counting_load(path):
        loads[os.path.basename(path)] += 1
        return real_load(path)

    def counting_generate(*args, **kwargs):
        generations.append(args)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(training, "load_checkpoint", counting_load)
    monkeypatch.setattr(training, "generate_with_mbr", counting_generate)
    out = tmp_path / "pp.jsonl"
    argv = ["plug-and-play",
            "--scheduler", os.path.join(tiny_run, "checkpoints", "scheduler-final.bin"),
            "--exploiter", os.path.join(tiny_run, "checkpoints", "exploiter-final.bin"),
            "--src", src_file, "--out", str(out), "--steps", "4", "--seed", "3"]
    assert run_cli(*argv, *(["--ref", src_file] if with_ref else [])) == 0
    assert len(generations) == (2 if with_ref else 1)
    assert loads == {"scheduler-final.bin": 1, "exploiter-final.bin": 1}


@pytest.mark.parametrize("key, value", [
    ("heads", "0"), ("model_dim", "0"), ("sched_hidden", "0"), ("layers", "0"),
    ("T", "0"), ("max_len", "3"), ("max_steps", "-3"), ("total_batch", "0"),
    ("gen_steps", "0"), ("eval_mbr", "0"), ("threads", "0"), ("epochs", "-1"),
    ("checkpoint_every", "-1"), ("lr_exploiter", "nan"), ("probe_lr", "-inf"),
    ("dataset_tag", "a\nb"), ("dataset_tag", "a\u2028b"), ("dataset_tag", "a\udcffb"),
])
def test_train_bad_value_exits_2_naming_the_key_before_writing(tmp_path, capsys,
                                                              key, value):
    out = tmp_path / "run"
    small = ["model_dim=16", "heads=2", "layers=1", "T=8", "max_len=10",
             "vocab_size=6", "len_min=1", "len_max=3", "train_size=8",
             "heldout_size=2", "total_batch=8", "exploration_epochs=2",
             "ffn_mult=2", "sched_hidden=8", "epochs=1", "gen_steps=4"]
    argv = [arg for text in [*small, f"{key}={value}"] for arg in ("--set", text)]
    assert run_cli("train", "--task", "copy", "--out", str(out), *argv) == 2
    assert f"key {key!r}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "plug-and-play"])
def test_mbr_below_one_is_rejected(tiny_run, src_file, tmp_path, capsys, command):
    ckpt = os.path.join(tiny_run, "checkpoints")
    argv = [command, "--exploiter", os.path.join(ckpt, "exploiter-final.bin"),
            "--scheduler", os.path.join(ckpt, "scheduler-final.bin"),
            "--src", src_file, "--out", str(tmp_path / "gen.jsonl"), "--mbr", "0"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "--mbr must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "gen.jsonl").exists()


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in os.confstr_names,
                    reason="mallopt is glibc's")
def test_freed_memory_is_kept_for_reuse():
    import resource

    def churn():
        arrays = [np.ones(8192) for _ in range(200)]   # 64 KiB each, on the heap
        del arrays

    cli._keep_freed_memory()
    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        churn()
    # glibc's default trims the freed 12.5 MiB off the heap's top each
    # time, and the next churn faults it in again: about 15 000 faults
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


@pytest.mark.parametrize("flag", ["--data", "--val-data"])
def test_train_with_a_source_too_long_for_the_policy_exits_2_before_writing(
        tmp_path, capsys, flag):
    fits = tmp_path / "fits.jsonl"
    fits.write_text('{"src": "a b", "trg": "b a"}\n' * 3)
    long = tmp_path / "long.jsonl"
    long.write_text('{"src": "a b", "trg": "b a"}\n{"src": "a b c", "trg": "c b a"}\n')
    files = {"--data": str(fits), "--val-data": str(fits), flag: str(long)}
    small = ["model_dim=16", "heads=2", "layers=1", "T=8", "max_len=12",
             "total_batch=2", "exploration_epochs=2", "ffn_mult=2",
             "sched_hidden=8", "epochs=1", "gen_steps=4", "sched_max_len=2"]
    argv = [*[a for item in files.items() for a in item],
            *[arg for text in small for arg in ("--set", text)]]
    out = tmp_path / "run"
    assert run_cli("train", *argv, "--out", str(out)) == 2
    assert (f"{long}: pair 2 has a source of 3 tokens but sched_max_len is 2"
            in capsys.readouterr().err)
    assert not out.exists()
    # the fixed-sqrt arm never runs the policy
    assert run_cli("train", *argv, "--out", str(tmp_path / "fixed"), "--fixed-sqrt") == 0


def _one_and_two_cpus(monkeypatch, run):
    """``run()`` with this process's affinity read as one CPU, then as two;
    one row a generation block, so generation has a block for each worker.
    Returns both results and the worker counts each run's pool gave."""
    monkeypatch.setattr(exploiter, "_BLOCK_BYTES", 1)
    shared = []
    workers_for = WorkerPool.workers_for

    def spy(self, jobs):
        shared.append(workers_for(self, jobs))
        return shared[-1]

    monkeypatch.setattr(WorkerPool, "workers_for", spy)
    results, counts = [], []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        results.append(run())
        assert multiprocessing.active_children() == []
        counts.append(set(shared))
        shared.clear()
    return results, counts


@pytest.mark.parametrize("command", ["train", "generate", "plug-and-play"])
def test_commands_write_the_same_bytes_in_worker_processes(tiny_run, src_file,
                                                           tmp_path, monkeypatch, command):
    ckpt = os.path.join(tiny_run, "checkpoints")
    argv = {"train": ["train", "--task", "copy", "--seed", "3", "--epochs", "2",
                      "--T", "8", *[arg for text in [
                          "model_dim=16", "heads=2", "layers=1", "max_len=10",
                          "vocab_size=6", "len_min=1", "len_max=3", "train_size=16",
                          "heldout_size=5", "total_batch=8", "exploration_epochs=2",
                          "period=1", "gen_steps=4", "eval_every=1", "ffn_mult=2",
                          "sched_hidden=8"] for arg in ("--set", text)]],
            "generate": ["generate", "--exploiter", os.path.join(ckpt, "exploiter-final.bin"),
                         "--scheduler", os.path.join(ckpt, "scheduler-final.bin"),
                         "--src", src_file, "--mbr", "3", "--steps", "4"],
            "plug-and-play": ["plug-and-play", "--exploiter",
                              os.path.join(ckpt, "exploiter-final.bin"),
                              "--scheduler", os.path.join(ckpt, "scheduler-final.bin"),
                              "--src", src_file, "--ref", src_file, "--mbr", "2",
                              "--steps", "4"]}[command]
    runs = iter(["one", "two"])

    def run():
        work = tmp_path / next(runs)
        work.mkdir()
        assert run_cli(*argv, "--out", str(work / "out")) == 0
        return {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}

    (one, two), counts = _one_and_two_cpus(monkeypatch, run)
    assert one and one == two
    assert counts == [{1}, {2}]


def test_an_error_in_a_worker_exits_2_as_it_does_inline(tiny_run, src_file, tmp_path,
                                                        capsys, monkeypatch):
    def failing(latents, embedding):
        raise JsonlParseError("rows.jsonl", 3, "raised while rounding")

    monkeypatch.setattr(exploiter, "round_to_tokens", failing)
    ckpt = os.path.join(tiny_run, "checkpoints")
    out = tmp_path / "gen.jsonl"

    def run():
        code = run_cli("generate", "--exploiter", os.path.join(ckpt, "exploiter-final.bin"),
                       "--fixed-sqrt", "--src", src_file, "--out", str(out))
        return code, capsys.readouterr().err

    (one, two), counts = _one_and_two_cpus(monkeypatch, run)
    assert one == two == (2, "error: rows.jsonl:3: raised while rounding\n")
    assert counts == [{1}, {2}]
    assert not out.exists()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_generate_writes_the_same_bytes_on_one_cpu_as_on_two(tiny_run, tmp_path):
    # 120 sources are two generation blocks at the tiny run's config
    src = tmp_path / "src.jsonl"
    src.write_text("".join(json.dumps({"src": " ".join(f"w{(i + k) % 6:02d}"
                                                       for k in range(1 + i % 3))}) + "\n"
                           for i in range(120)))
    ckpt = os.path.join(tiny_run, "checkpoints")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    first_two = sorted(os.sched_getaffinity(0))[:2]
    written = []
    for cpus in (first_two[:1], first_two):
        out = tmp_path / f"gen-{len(cpus)}.jsonl"
        subprocess.run([sys.executable, "-m", "skipdiff.cli", "generate",
                        "--exploiter", os.path.join(ckpt, "exploiter-final.bin"),
                        "--scheduler", os.path.join(ckpt, "scheduler-final.bin"),
                        "--src", str(src), "--out", str(out), "--mbr", "2",
                        "--steps", "4"],
                       env=env, check=True, capture_output=True, timeout=120,
                       preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus))
        written.append(out.read_bytes())
    assert len(written[0].splitlines()) == 120
    assert written[0] == written[1]
