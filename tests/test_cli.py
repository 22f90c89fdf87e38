import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import optics_cp
from optics_cp import DomainError, GeneratorSpec, generate, sim
from optics_cp.cli import main


def write_mean_csv(path, seed=0, n_obs=400, amp=2.0):
    spec = GeneratorSpec(n_total=n_obs, amplitude=amp,
                         taus_star=tuple(n_obs * k // 5 for k in range(1, 5)))
    ts, _ = generate(spec, seed)
    np.savetxt(path, ts.data, delimiter=",")
    return path


def write_regression_csv(path, seed, amplitude=0.2):
    spec = GeneratorSpec(design="regression", d=5, amplitude=amplitude,
                         noise="student_t", noise_param=10.0, n_total=2000,
                         taus_star=(400, 800, 1200, 1600))
    ts, cov = generate(spec, seed)
    np.savetxt(path, np.column_stack([ts.data, cov]), delimiter=",")
    return path


def test_analyze_minimal_csv(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv")
    out = tmp_path / "result.json"
    code = main(["analyze", "--input", str(csv), "--seed", "7",
                 "--B", "200", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "optics/1"
    assert len(doc["confidence_set"]["members"]) >= 1
    assert doc["confidence_set"]["rightmost"] >= doc["confidence_set"]["leftmost"]
    assert doc["config"]["seed"] == 7
    ks = [c["k"] for c in doc["candidates"]]
    assert ks == sorted(ks)
    for c in doc["candidates"]:
        assert len(c["taus"]) == c["k"]
        assert c["taus_original_odd"] == [2 * t - 1 for t in c["taus"]]
        assert c["taus_original_even"] == [2 * t for t in c["taus"]]


def test_analyze_ms_original_positions(tmp_path):
    # with L = 3, half-sample boundaries map to the original rows that hold
    # subsample 0's odd and even halves
    n_obs = 400
    csv = write_mean_csv(tmp_path / "data.csv", n_obs=n_obs)
    out = tmp_path / "result.json"
    assert main(["analyze", "--input", str(csv), "--variant", "ms:3", "--seed", "7",
                 "--B", "100", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = np.arange(1, n_obs + 1)[0::3][: n_obs // 3]
    half = len(rows) // 2
    odd_rows, even_rows = rows[0::2][:half], rows[1::2][:half]
    assert doc["split_half"] == half
    for c in doc["candidates"]:
        assert c["taus_original_odd"] == [int(odd_rows[t - 1]) for t in c["taus"]]
        assert c["taus_original_even"] == [int(even_rows[t - 1]) for t in c["taus"]]


def test_analyze_byte_identical_reruns(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv", seed=1)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["analyze", "--input", str(csv), "--seed", "3", "--B", "150"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_thread_flag_does_not_change_output(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv", seed=2)
    out1, out2 = tmp_path / "t1.json", tmp_path / "t4.json"
    base = ["analyze", "--input", str(csv), "--seed", "5", "--B", "150"]
    assert main(base + ["--threads", "1", "--output", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,notanumber\n")
    assert main(["analyze", "--input", str(bad)]) == 2
    assert main(["analyze", "--input", str(tmp_path / "missing.csv")]) == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_analyze_non_finite_value_is_parse_error(tmp_path, capsys, token):
    bad = tmp_path / "nonfinite.csv"
    bad.write_text("x,y\n1.0,2.0\n\n3.0," + token + "\n4.0,5.0\n")
    assert main(["analyze", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "non-finite" in err


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "unused.csv"],
    ["simulate", "--preset", "tab1", "--runs", "1", "--output", "-"],
])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_3(capsys, command, threads):
    assert main(command + ["--threads", threads]) == 3
    assert "--threads" in capsys.readouterr().err


def test_simulate_ms_l_zero_exit_3(capsys):
    assert main(["simulate", "--preset", "vary_n", "--runs", "1", "--ms-l", "0",
                 "--output", "-"]) == 3
    assert "--ms-l" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\u00a01.5"])
def test_analyze_odd_token_is_parse_error(tmp_path, capsys, token):
    # float() reads these as 10, 3 and 1.5; the CSV accepts plain ASCII numbers only
    bad = tmp_path / "odd.csv"
    bad.write_text("x_label\n1.0\n2.0\n" + token + "\n4.0\n", encoding="utf-8")
    assert main(["analyze", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "non-ASCII" in err


@pytest.mark.parametrize("first,model,detector", [
    ("0", "mean", "sn"), ("1e200", "mean", "sn"), ("0", "mean", "bs"),
    ("1e200", "mean", "bs"), ("1e200", "covariance", "sn"),
])
def test_analyze_overflowing_squares_exit_4(tmp_path, capsys, first, model, detector):
    # 0 and 1e200 alternate: squares overflow in the fits (0 first) or the costs
    other = "1e200" if first == "0" else "0"
    rows = [first if i % 2 == 0 else other for i in range(60)]
    if model == "covariance":
        rows = [f"{r},2" for r in rows]
    csv = tmp_path / "huge.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["analyze", "--input", str(csv), "--model", model, "--detector", detector,
                 "--B", "50", "--output", "-"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "overflow" in err


def test_analyze_interrupt_exit_130(tmp_path, capsys, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr("optics_cp.cli._read_csv", interrupted)
    assert main(["analyze", "--input", str(tmp_path / "data.csv")]) == 130
    err = capsys.readouterr().err
    assert err == "error: interrupted\n"


def test_analyze_header_row_tolerated(tmp_path):
    csv = tmp_path / "hdr.csv"
    spec = GeneratorSpec(n_total=200, taus_star=(100,), amplitude=3.0)
    ts, _ = generate(spec, 0)
    lines = ["value"] + [repr(float(v)) for v in ts.data[:, 0]]
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    assert main(["analyze", "--input", str(csv), "--B", "100",
                 "--output", str(out)]) == 0


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_read_csv_from_pipe_reads_it_once():
    import threading

    from optics_cp.cli import _read_csv

    text = "y,x\n" + "".join(f"{i}.5,{-i}\n" for i in range(2000)) + "1,inf\n"
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with pytest.raises(optics_cp.ParseError, match="line 2002: non-finite"):
            _read_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_analyze_infeasible_exit_3(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv")
    assert main(["analyze", "--input", str(csv), "--kmax", "90"]) == 3
    assert main(["analyze", "--input", str(csv), "--variant", "huber:-1"]) == 3
    assert main(["analyze", "--input", str(csv), "--variant", "nope"]) == 3
    assert main(["analyze", "--input", str(csv), "--detector", "wbs"]) == 3


def test_analyze_domain_error_exit_4(tmp_path):
    csv = tmp_path / "var.csv"
    data = np.ones(40)
    data[7] = 0.0
    np.savetxt(csv, data, delimiter=",")
    assert main(["analyze", "--input", str(csv), "--model", "variance"]) == 4


def test_analyze_stdout_dash(tmp_path, capsys):
    csv = write_mean_csv(tmp_path / "data.csv")
    assert main(["analyze", "--input", str(csv), "--B", "100",
                 "--output", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "optics/1"


def test_analyze_csv_format(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv")
    out = tmp_path / "table.csv"
    assert main(["analyze", "--input", str(csv), "--B", "100",
                 "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("k,p_hat,t_stat,criterion,in_set")
    assert len(lines) >= 2


def test_analyze_env_seed_fallback(tmp_path, monkeypatch):
    csv = write_mean_csv(tmp_path / "data.csv")
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    monkeypatch.setenv("OPTICS_SEED", "99")
    assert main(["analyze", "--input", str(csv), "--B", "100",
                 "--output", str(out1)]) == 0
    monkeypatch.delenv("OPTICS_SEED")
    assert main(["analyze", "--input", str(csv), "--B", "100", "--seed", "99",
                 "--output", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


def test_analyze_variants_run(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv", n_obs=600)
    for variant in ["ms:2", "huber:1.5", "mdep:1", "huber:adaptive"]:
        out = tmp_path / f"v_{variant.replace(':', '_')}.json"
        assert main(["analyze", "--input", str(csv), "--B", "100",
                     "--variant", variant, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["confidence_set"]["members"]) >= 1


def test_analyze_regression_model(tmp_path):
    csv = write_regression_csv(tmp_path / "reg.csv", seed=0)
    out = tmp_path / "reg.json"
    assert main(["analyze", "--input", str(csv), "--model", "regression",
                 "--B", "200", "--min-seg", "20", "--seed", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 4 in doc["confidence_set"]["members"]


def test_analyze_regression_covers_truth_across_seeds(tmp_path):
    hits = 0
    for seed in range(10):
        csv = write_regression_csv(tmp_path / f"reg{seed}.csv", seed=seed)
        out = tmp_path / f"reg{seed}.json"
        assert main(["analyze", "--input", str(csv), "--model", "regression",
                     "--B", "300", "--min-seg", "20", "--seed", str(seed),
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        hits += 4 in doc["confidence_set"]["members"]
    assert hits >= 8


def test_simulate_unknown_preset_exit_3():
    assert main(["simulate", "--preset", "tab99", "--output", "-"]) == 3


def test_simulate_single_run_csv(tmp_path):
    prefix = tmp_path / "sim"
    assert main(["simulate", "--preset", "tab1", "--runs", "1", "--B", "100",
                 "--seed", "4", "--output", str(prefix)]) == 0
    rows = (tmp_path / "sim.csv").read_text().strip().splitlines()
    assert rows[0] == "run,method,detector,A,covered,cardinality,copss_hit,seconds"
    assert len(rows) == 2
    summary = json.loads((tmp_path / "sim.json").read_text())
    assert summary["schema"] == "optics/1"
    assert summary["results"]["runs"] == 1


def test_simulate_spec_file_round_trip(tmp_path):
    prefix = tmp_path / "first"
    assert main(["simulate", "--preset", "tab1", "--runs", "2", "--B", "80",
                 "--seed", "6", "--output", str(prefix)]) == 0
    first = json.loads((tmp_path / "first.json").read_text())
    prefix2 = tmp_path / "second"
    assert main(["simulate", "--spec", str(tmp_path / "first.json"),
                 "--output", str(prefix2)]) == 0
    second = json.loads((tmp_path / "second.json").read_text())
    assert first["config"] == second["config"]
    assert first["results"] == second["results"]


def test_simulate_minimal_spec_file(tmp_path):
    spec_file = tmp_path / "mini.json"
    spec_file.write_text(json.dumps({
        "generator": {"design": "mean", "amplitude": 2.0, "n_total": 200,
                      "taus_star": [100]},
        "runs": 2,
        "b_reps": 60,
    }))
    prefix = tmp_path / "mini_out"
    assert main(["simulate", "--spec", str(spec_file), "--output", str(prefix)]) == 0
    summary = json.loads((tmp_path / "mini_out.json").read_text())
    assert summary["results"]["runs"] == 2


def test_simulate_spec_file_without_generator_exit_2(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"runs": 2}))
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 2
    spec_file.write_text("{not json")
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 2


_GENERATOR = {"design": "mean", "amplitude": 2.0, "n_total": 200, "taus_star": [100]}


@pytest.mark.parametrize("spec", [
    [_GENERATOR],
    {"generator": _GENERATOR, "ms_l": None},
    {"generator": _GENERATOR, "runs": "2"},
    {"generator": dict(_GENERATOR, colour="red")},
], ids=["top_level_array", "ms_l_null", "runs_string", "unknown_generator_key"])
def test_simulate_badly_typed_spec_file_exit_2(tmp_path, capsys, spec):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_zero_dimensional_spec_exit_3(tmp_path, capsys):
    spec_file = tmp_path / "d0.json"
    spec_file.write_text(json.dumps({"generator": {"design": "mean", "d": 0}, "runs": 1}))
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("n_total", [-5, 0])
def test_simulate_spec_with_no_points_exit_3(tmp_path, capsys, n_total):
    spec_file = tmp_path / "empty.json"
    spec_file.write_text(json.dumps({"generator": {"n_total": n_total, "taus_star": []},
                                     "runs": 1}))
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 3
    err = capsys.readouterr().err
    assert "n_total must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("noise_param", 0, "noise_param must be finite and > 0"),
    ("noise_param", float("inf"), "noise_param must be finite and > 0"),
    ("amplitude", float("nan"), "amplitude must be finite"),
])
def test_simulate_spec_with_bad_noise_or_amplitude_exit_3(tmp_path, capsys, field, value, message):
    spec_file = tmp_path / "bad.json"
    generator = dict(_GENERATOR, noise="student_t", **{field: value})
    spec_file.write_text(json.dumps({"generator": generator, "runs": 1}))
    assert main(["simulate", "--spec", str(spec_file), "--output", "-"]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_simulate_stdout(capsys):
    assert main(["simulate", "--preset", "tab1", "--runs", "1", "--B", "60",
                 "--output", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "results" in doc


def test_module_entry_point(tmp_path):
    csv = write_mean_csv(tmp_path / "data.csv")
    # the child process must import the same package as the tests
    src = str(Path(optics_cp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "optics_cp.cli", "analyze", "--input", str(csv),
         "--B", "60", "--output", "-"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "optics/1"


def _child_env():
    # the child process must import the same package as the tests
    src = str(Path(optics_cp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def test_simulate_threads_identical_output_in_subprocess(tmp_path):
    # a subprocess with a timeout, so a hung worker pool fails instead of stalling
    outputs = {}
    for threads in ("1", "2"):
        prefix = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "optics_cp", "simulate", "--preset", "tab1",
             "--runs", "5", "--B", "100", "--seed", "2", "--threads", threads,
             "--output", str(prefix)],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / f"t{threads}.csv").read_text().splitlines()
        outputs[threads] = ([r.rsplit(",", 1)[0] for r in rows],
                            (tmp_path / f"t{threads}.json").read_bytes())
    assert outputs["1"] == outputs["2"]
    assert len(outputs["1"][0]) == 6


def test_simulate_sigint_exit_130(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(
        "import sys\n"
        "from optics_cp.cli import main\n"
        "print('ready', flush=True)\n"
        "sys.exit(main(['simulate', '--preset', 'tab1', '--runs', '2000', "
        "'--threads', '2', '--output', '-']))\n"
    )
    # its own process group, like a shell job: Ctrl-C reaches the workers too
    proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_child_env(),
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(1.0)  # into the runs, with the worker started
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert err == "error: interrupted\n" and out == ""
    # the workers went with the caller
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_simulate_worker_error_exit_code(fresh_pool, monkeypatch, capsys, threads):
    real = sim._run_variant

    def failing(ts, model, kind, m, alpha, cfg, **kwargs):
        if cfg.seed % 2:  # the odd runs, all of them in a worker at --threads 2
            raise DomainError(f"run seed {cfg.seed} rejected")
        return real(ts, model, kind, m, alpha, cfg, **kwargs)

    monkeypatch.setattr(sim, "_run_variant", failing)
    assert main(["simulate", "--preset", "tab1", "--runs", "4", "--B", "50",
                 "--threads", threads, "--output", "-"]) == 4
    assert capsys.readouterr().err == "error: run seed 1 rejected\n"


def test_simulate_dead_worker_exit_3(fresh_pool, monkeypatch, capsys):
    real = sim._run_variant
    caller = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "_run_variant", dying)
    assert main(["simulate", "--preset", "tab1", "--runs", "2", "--B", "50",
                 "--threads", "2", "--output", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Monte Carlo worker process ") and "died" in err
    assert "Traceback" not in err


def test_analyze_sigint_in_bootstrap_exit_130(tmp_path):
    csv = tmp_path / "big.csv"
    values = np.random.default_rng(3).standard_normal(64_000)
    csv.write_text("\n".join(f"{v:.6f}" for v in values) + "\n")
    script = tmp_path / "child.py"
    # the child says when it enters the bootstrap; B is large enough to keep it there
    script.write_text(
        "import sys\n"
        "from optics_cp import inference\n"
        "from optics_cp.cli import main\n"
        "real = inference._bootstrap\n"
        "def announced(*args):\n"
        "    print('bootstrap', flush=True)\n"
        "    return real(*args)\n"
        "inference._bootstrap = announced\n"
        f"sys.exit(main(['analyze', '--input', {str(csv)!r}, '--detector', 'bs', "
        f"'--B', '200000', '--output', {str(tmp_path / 'out.json')!r}]))\n"
    )
    proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_child_env())
    try:
        assert proc.stdout.readline() == "bootstrap\n"
        time.sleep(0.5)  # into the chunks
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        out, err = proc.communicate(timeout=30)
        waited = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130
    assert err == "error: interrupted\n" and out == ""
    assert waited < 5
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--alpha", "1.5"], "alpha must be in (0, 1)"),
    (["--alpha", "nan"], "alpha must be in (0, 1)"),
    (["--min-seg", "1"], "min_seg must be >= 2"),
    (["--kmax", "0"], "k_max must be >= 1"),
    (["--variant", "huber:-1"], "kappa must be finite and positive"),
    (["--B", "0"], "b_reps must be >= 1"),
])
def test_analyze_bad_setting_is_config_error_exit_3(tmp_path, capsys, argv, message):
    csv = write_mean_csv(tmp_path / "data.csv", n_obs=100)
    assert main(["analyze", "--input", str(csv), "--output", "-"] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_internal_value_error_is_not_reported_as_exit_3(monkeypatch):
    # only the package's own errors map to exit codes; anything else is a bug
    def broken(args):
        raise ValueError("internal")

    monkeypatch.setattr("optics_cp.cli._run_analyze", broken)
    with pytest.raises(ValueError, match="^internal$"):
        main(["analyze", "--input", "unused.csv"])
