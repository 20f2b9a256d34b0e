import textwrap
from pathlib import Path

import numpy as np
import pytest

from svilab.cli import dispatch, main, parse_config
from svilab.errors import ConfigError

MINIMAL = textwrap.dedent(
    """
    [domain]
    n = 31
    [time]
    t = 0.05
    dt = 1e-3
    [output]
    dir = {out}
    """
)

FULL = textwrap.dedent(
    """
    # full run with noise and forcing
    [domain]
    dim = 1
    lengths = 1.0
    n = 31
    bc = dirichlet

    [time]
    t = 0.05
    dt = 1e-3
    theta = 1.0

    [noise]
    m = 1
    seed = 7
    mu1 = const(0.5) * sin(1)   # inline comment

    [reaction]
    kind = linear
    alpha = 0.3

    [penalty]
    eps = 1e-3

    [forcing]
    kind = const
    amplitude = -0.5

    [initial]
    kind = sine
    amplitude = 0.5

    [run]
    mode = run

    [output]
    dir = {out}
    """
)


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=tmp_path / "o")))
    assert cfg.theta == 1.0
    assert cfg.slack == 10.0
    assert cfg.eps == 1e-3
    assert cfg.mode == "run"
    assert cfg.n_steps == 50


def test_validation_collects_all_errors(tmp_path):
    bad = textwrap.dedent(
        """
        [domain]
        dim = 3
        n = 2
        [time]
        t = -1.0
        [penalty]
        eps = -1
        [forcing]
        kind = vortex
        [run]
        mode = fly
        """
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    msgs = "\n".join(exc.value.messages)
    assert "dim" in msgs
    assert "penalty.eps must be > 0" in msgs
    assert "vortex" in msgs
    assert "fly" in msgs
    assert len(exc.value.messages) >= 5


def test_unknown_keys_and_sections(tmp_path):
    bad = "[domain]\nn = 31\nshape = L\n[warp]\nspeed = 9\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    msgs = "\n".join(exc.value.messages)
    assert "unknown key domain.shape" in msgs
    assert "unknown section [warp]" in msgs


def test_missing_coefficients(tmp_path):
    bad = "[noise]\nm = 2\nmu1 = const(1.0) * sin(1)\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    assert any("mu2" in m for m in exc.value.messages)


def test_run_mode_zero_data(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, MINIMAL.format(out=out))), "--quiet"])
    assert code == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# config_sha256=")
    assert traj[1] == "t,node_index,xi_0,xi_1,y,X,eta"
    # zero initial data and no forcing: every state column is 0
    for line in traj[2:5]:
        cols = line.split(",")
        assert cols[4] == "0" and cols[5] == "0" and cols[6] == "0"
    summary = (out / "summary.csv").read_text()
    assert "fail" not in summary


def test_run_mode_full_and_exit_codes(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, FULL.format(out=out))), "--quiet"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.csv").exists()


def test_byte_identical_reruns(tmp_path):
    conf = write(tmp_path, FULL.format(out=tmp_path / "ignored"))
    outs = []
    for tag in ("a", "b"):
        cfg = parse_config(conf)
        cfg.out_dir = tmp_path / tag
        assert dispatch(cfg, quiet=True) == 0
        outs.append(tmp_path / tag)
    for name in ("trajectory.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_and_paths_overrides(tmp_path):
    conf = write(tmp_path, FULL.format(out=tmp_path / "a"))
    assert main(["--config", str(conf), "--quiet", "--seed", "123",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a")
    b = (tmp_path / "b")
    assert not a.exists()  # --out redirected everything
    assert (b / "trajectory.csv").exists()


def test_stability_failure_exit_2(tmp_path):
    stiff = textwrap.dedent(
        """
        [domain]
        n = 63
        [time]
        t = 0.2
        dt = 5e-3
        [noise]
        m = 1
        seed = 5
        mu1 = const(9.0) * sin(3)
        [initial]
        kind = sine
        amplitude = 1.0
        [run]
        mode = run
        headroom = 1
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, stiff.format(out=out))), "--quiet"])
    assert code == 2
    summary = (out / "summary.csv").read_text()
    assert "numerical_failure" in summary and "fail" in summary


def test_ensemble_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 15
        [time]
        t = 0.02
        dt = 1e-3
        [noise]
        m = 1
        seed = 3
        mu1 = const(0.5) * const(1.0)
        [initial]
        kind = sine
        amplitude = 1.0
        [run]
        mode = ensemble
        n_paths = 6
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[1] == "functional,mean,variance,ci_half_width,n_paths,n_failures"
    assert any(line.startswith("sup_y_l2_sq,") for line in stats)


def test_rate_eps_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 31
        [time]
        t = 0.1
        dt = 1e-3
        [penalty]
        eps = 1e-1, 2.5e-2, 6.25e-3, 1.5625e-3
        [forcing]
        kind = const
        amplitude = -1.0
        [run]
        mode = rate-eps
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[1] == "eps,error_l2,slope_running"
    assert len(rates) == 6  # comment + header + 4 eps rows
    assert "cauchy_slope" in (out / "summary.csv").read_text()


def test_rate_mesh_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 15
        [time]
        t = 0.05
        dt = 1e-3
        [initial]
        kind = sine
        amplitude = 1.0
        [run]
        mode = rate-mesh
        mesh_levels = 2
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    rates = (out / "rates.csv").read_text().splitlines()
    rows = [r.split(",") for r in rates[2:]]
    errs = [float(r[1]) for r in rows]
    assert errs[1] < errs[0]  # finer grid, smaller error vs reference


def test_stefan_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 63
        [time]
        t = 0.05
        dt = 2e-4
        [penalty]
        eps = 1e-6
        [stefan]
        rho = 1.0
        boundary_temp = 1.0
        [run]
        mode = stefan
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    front = (out / "front.csv").read_text().splitlines()
    assert front[1] == "t,front_position,melted_measure"
    last = front[-1].split(",")
    assert float(last[1]) > 0.1  # the front moved


def test_signorini_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 31
        bc = neumann
        [time]
        t = 0.1
        dt = 1e-3
        [forcing]
        kind = edge
        amplitude = -1.0
        width = 0.15
        [run]
        mode = signorini
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "boundary_trace_min" in summary
    assert "coercivity_violations" in summary


def test_verify_mode_subset(tmp_path):
    conf = textwrap.dedent(
        """
        [run]
        mode = verify
        [verify]
        checks = heat_oracle
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "heat_oracle_sup_error" in summary
    assert summary.count("fail") == 0


def test_missing_config_file():
    assert main(["--config", "/nonexistent/x.cfg", "--quiet"]) == 1




@pytest.mark.parametrize("flag, value, key, in_file", [
    ("--paths", "1", "run.n_paths", ("n_paths = 4", "n_paths = 1")),
    ("--seed", "-1", "noise.seed", ("seed = 7", "seed = -1")),
])
def test_overrides_validated_like_file_values(tmp_path, capsys, flag, value, key, in_file):
    conf = FULL.format(out=tmp_path / "out").replace("mode = run", "mode = ensemble\nn_paths = 4")
    code = main(["--config", str(write(tmp_path, conf)), "--quiet", flag, value])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config error:")]
    assert len(errors) == 1 and key in errors[0]
    assert not (tmp_path / "out").exists()
    # the same value written in the file gives the same message
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, conf.replace(*in_file), name="file.cfg"))
    assert [f"config error: {m}" for m in exc.value.messages] == errors
