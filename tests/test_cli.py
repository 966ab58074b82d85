"""Batch CLI: `run` and `spectrum` on the shipped H2 Hamiltonian.

Energies are checked against exact diagonalization of ``data/h2.ham``;
the CSV layout and provenance header are checked line by line.
"""
import argparse
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qcsim import cli, pauli
from qcsim.errors import QcsimError

H2_PATH = Path(__file__).resolve().parents[1] / "data" / "h2.ham"
DIMER_PATH = H2_PATH.with_name("hubbard_dimer.ham")

# Ry(t) on q0, X on q1, CNOT: cos(t/2)|01> + sin(t/2)|10>, which spans the
# one-excitation sector holding the H2 ground state.
KERNEL = """__qpu__ void h2(qbit q, double t) {
  Ry(q[0], t);
  X(q[1]);
  CNOT(q[0], q[1]);
}"""

SECTIONS = {
    "vqe": "[vqe]\noptimizer = nelder-mead\ntolerance = 1e-12\n",
    "qcmx": "[qcmx]\ncmx-order = 3\n",
    "qeom": "[qeom]\nn-electrons = 1\n",
}


def _write_config(tmp_path, algorithm, files=None, labels=None):
    kernel = tmp_path / "h2.kernel"
    kernel.write_text(KERNEL, encoding="utf-8")
    files = files or [str(H2_PATH)]
    lines = [
        "[run]",
        f"algorithm = {algorithm}",
        "[hamiltonian]",
        f"files = {', '.join(files)}",
    ]
    if labels:
        lines.append(f"labels = {', '.join(labels)}")
    lines += ["[ansatz]", "kind = kernel", f"file = {kernel}"]
    text = "\n".join(lines) + "\n" + SECTIONS[algorithm]
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def _main(verb, config, out, *flags):
    return cli.main([verb, "--config", str(config), "--out", str(out), *flags])


def _read(out):
    """(header lines, column names, rows as dicts of strings)."""
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    columns = body[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in body[1:]]
    return header, columns, rows


@pytest.fixture(scope="module")
def h2_spectrum():
    matrix = pauli.to_matrix(pauli.load_hamiltonian(str(H2_PATH)), 2)
    return np.linalg.eigvalsh(matrix)


@pytest.fixture(scope="module")
def h2_one_excitation_sector():
    """Eigenvalues on span{|01>, |10>} (indices 1 and 2, qubit 0 first)."""
    matrix = pauli.to_matrix(pauli.load_hamiltonian(str(H2_PATH)), 2)
    return np.linalg.eigvalsh(matrix[np.ix_([1, 2], [1, 2])])


class TestRun:
    def test_vqe_matches_exact_diagonalization(self, tmp_path, h2_spectrum):
        out = tmp_path / "out.csv"
        assert _main("run", _write_config(tmp_path, "vqe"), out) == cli.EXIT_OK
        _, columns, rows = _read(out)
        assert columns == ["label", "opt-val"]
        assert [row["label"] for row in rows] == ["h2"]
        assert float(rows[0]["opt-val"]) == pytest.approx(h2_spectrum[0], abs=1e-6)

    def test_provenance_header(self, tmp_path):
        config = _write_config(tmp_path, "vqe")
        out = tmp_path / "out.csv"
        assert _main("run", config, out) == cli.EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        digest = hashlib.sha256(config.read_bytes()).hexdigest()
        assert lines[:5] == [
            f"# qcsim-version={cli.__version__}",
            f"# config-sha256={digest}",
            "# seed=",
            "# energies in Hartree",
            "label,opt-val",
        ]
        assert len(lines) == 6

    def test_sweep_rows_follow_labels(self, tmp_path):
        config = _write_config(
            tmp_path, "vqe", files=[str(H2_PATH), str(H2_PATH)], labels=["a", "b"]
        )
        out = tmp_path / "out.csv"
        assert _main("run", config, out) == cli.EXIT_OK
        _, _, rows = _read(out)
        assert [row["label"] for row in rows] == ["a", "b"]
        assert rows[0]["opt-val"] == rows[1]["opt-val"]

    def test_kernel_is_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        parsed = []
        parse_kernel = cli.parse_kernel
        monkeypatch.setattr(
            cli, "parse_kernel", lambda source: parsed.append(source) or parse_kernel(source)
        )
        config = _write_config(
            tmp_path, "qeom", files=[str(H2_PATH)] * 3, labels=["a", "b", "c"]
        )
        assert _main("run", config, tmp_path / "out.csv") == cli.EXIT_OK
        assert len(parsed) == 1

    def test_qcmx_primary_energy_is_last_pds(self, tmp_path):
        config = _write_config(tmp_path, "qcmx")
        run_out, spectrum_out = tmp_path / "run.csv", tmp_path / "spectrum.csv"
        assert _main("run", config, run_out) == cli.EXIT_OK
        assert _main("spectrum", config, spectrum_out) == cli.EXIT_OK
        assert _read(run_out)[2][0]["opt-val"] == _read(spectrum_out)[2][0]["pds3"]

    def test_qeom_primary_energy_is_ground_energy(self, tmp_path, h2_spectrum):
        config = _write_config(tmp_path, "qeom")
        run_out, spectrum_out = tmp_path / "run.csv", tmp_path / "spectrum.csv"
        assert _main("run", config, run_out) == cli.EXIT_OK
        assert _main("spectrum", config, spectrum_out) == cli.EXIT_OK
        energy = _read(run_out)[2][0]["opt-val"]
        assert energy == _read(spectrum_out)[2][0]["E0"]
        assert float(energy) == pytest.approx(h2_spectrum[0], abs=1e-6)


class TestSpectrum:
    def test_vqe_single_column_equals_run(self, tmp_path):
        config = _write_config(tmp_path, "vqe")
        run_out, spectrum_out = tmp_path / "run.csv", tmp_path / "spectrum.csv"
        assert _main("run", config, run_out) == cli.EXIT_OK
        assert _main("spectrum", config, spectrum_out) == cli.EXIT_OK
        run_header, run_columns, run_rows = _read(run_out)
        spectrum_header, spectrum_columns, spectrum_rows = _read(spectrum_out)
        assert spectrum_columns == run_columns == ["label", "opt-val"]
        assert spectrum_rows == run_rows
        assert spectrum_header == run_header
        assert spectrum_out.read_bytes() == run_out.read_bytes()

    def test_qcmx_columns(self, tmp_path, h2_spectrum):
        out = tmp_path / "out.csv"
        assert _main("spectrum", _write_config(tmp_path, "qcmx"), out) == cli.EXIT_OK
        _, columns, rows = _read(out)
        assert columns == [
            "label", "cmx2", "cmx3", "pds2", "pds3", "knowles2", "knowles3"
        ]
        # the ansatz is prepared to the exact ground state, where every
        # family collapses to <H>
        for column in columns[1:]:
            assert float(rows[0][column]) == pytest.approx(h2_spectrum[0], abs=1e-6)

    def test_qeom_columns(self, tmp_path, h2_spectrum, h2_one_excitation_sector):
        out = tmp_path / "out.csv"
        assert _main("spectrum", _write_config(tmp_path, "qeom"), out) == cli.EXIT_OK
        _, columns, rows = _read(out)
        assert columns == ["label", "E0", "ex1"]
        assert float(rows[0]["E0"]) == pytest.approx(h2_spectrum[0], abs=1e-6)
        gap = h2_one_excitation_sector[1] - h2_one_excitation_sector[0]
        assert float(rows[0]["ex1"]) == pytest.approx(gap, abs=1e-6)

    def test_bound_parameters_skip_preparation(self, tmp_path):
        # t = pi binds the ansatz to |10>, the Hartree-Fock determinant, so
        # QCMX works from a state that is not an eigenstate
        config = _write_config(tmp_path, "qcmx")
        config.write_text(
            config.read_text(encoding="utf-8").replace(
                "[qcmx]", f"params = {np.pi!r}\n[qcmx]"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert _main("spectrum", config, out) == cli.EXIT_OK
        _, _, rows = _read(out)
        matrix = pauli.to_matrix(pauli.load_hamiltonian(str(H2_PATH)), 2).real
        hf = np.zeros(4)
        hf[2] = 1.0
        m1, m2, m3 = (hf @ np.linalg.matrix_power(matrix, k) @ hf for k in (1, 2, 3))
        i2, i3 = m2 - m1**2, m3 - 3 * m2 * m1 + 2 * m1**3
        assert float(rows[0]["cmx2"]) == pytest.approx(m1 - i2**2 / i3, abs=1e-9)


class TestShippedDimer:
    """``spectrum`` on ``data/hubbard_dimer.ham`` from the UCCSD(2,4)
    circuit bound to zero, the Hartree-Fock determinant |1010>."""

    SECTIONS = {
        "qite": "[qite]\nsteps = 15\nstep-size = 0.1\n",
        "qcmx": "[qcmx]\ncmx-order = 3\n",
        "qeom": "[qeom]\nn-electrons = 2\n",
    }

    def _spectrum(self, tmp_path, algorithm):
        config = tmp_path / "dimer.ini"
        config.write_text(
            f"[run]\nalgorithm = {algorithm}\n"
            f"[hamiltonian]\nfiles = {DIMER_PATH}\n"
            "[ansatz]\nkind = uccsd\nne = 2\nnq = 4\nparams = 0, 0, 0\n"
            + self.SECTIONS[algorithm],
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert _main("spectrum", config, out) == cli.EXIT_OK
        _, _, rows = _read(out)
        assert [row["label"] for row in rows] == ["hubbard_dimer"]
        return {key: float(value) for key, value in rows[0].items() if key != "label"}

    @staticmethod
    def _dimer():
        return pauli.load_hamiltonian(str(DIMER_PATH))

    def test_qite_reaches_sector_ground(self, tmp_path, sector_eigh):
        row = self._spectrum(tmp_path, "qite")
        ground = sector_eigh(self._dimer(), 4, 2)[0][0]
        assert row["E-final"] == pytest.approx(ground, abs=1e-3)
        assert row["E-final"] < row["E-initial"]

    def test_qcmx_runs(self, tmp_path):
        row = self._spectrum(tmp_path, "qcmx")
        assert sorted(row) == sorted(
            f"{family}{m}" for family in ("cmx", "pds", "knowles") for m in (2, 3)
        )
        assert all(np.isfinite(value) for value in row.values())

    def test_qeom_roots_lie_in_the_spectral_width(self, tmp_path, sector_eigh):
        row = self._spectrum(tmp_path, "qeom")
        hf = np.zeros(16)
        hf[0b1010] = 1.0
        energy = hf @ pauli.to_matrix(self._dimer(), 4).real @ hf
        assert row["E0"] == pytest.approx(energy, abs=1e-12)
        roots = [value for key, value in row.items() if key.startswith("ex")]
        spectrum = sector_eigh(self._dimer(), 4, 2, sz=None)[0]
        assert roots
        assert all(0.0 < root <= spectrum[-1] - spectrum[0] for root in roots)


class TestExitCodes:
    def test_one_parser_serves_calls_that_each_return_their_own_code(self, tmp_path):
        config = _write_config(tmp_path, "vqe")
        (tmp_path / "missing").mkdir()
        missing = _write_config(tmp_path / "missing", "vqe", files=[str(tmp_path / "absent.ham")])
        out = tmp_path / "o.csv"
        # the process's parser exists from the first call on
        assert cli.main(["list"]) == cli.EXIT_OK
        with mock.patch.object(argparse, "ArgumentParser", wraps=argparse.ArgumentParser) as built:
            assert _main("run", config, out) == cli.EXIT_OK
            assert _main("run", missing, out) == cli.EXIT_MISSING_HAMILTONIAN
            assert _main("run", tmp_path / "absent.ini", out) == cli.EXIT_CONFIG
            assert _main("spectrum", config, out) == cli.EXIT_OK
        assert built.call_count == 0

    def test_missing_config_file(self, tmp_path):
        assert _main("run", tmp_path / "absent.ini", tmp_path / "o.csv") == cli.EXIT_CONFIG

    def test_config_without_run_section(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[hamiltonian]\nfiles = x.ham\n", encoding="utf-8")
        for verb in ("run", "spectrum"):
            assert _main(verb, config, tmp_path / "o.csv") == cli.EXIT_CONFIG

    def test_mismatched_labels(self, tmp_path):
        config = _write_config(tmp_path, "vqe", labels=["a", "b"])
        assert _main("run", config, tmp_path / "o.csv") == cli.EXIT_CONFIG

    def test_missing_hamiltonian(self, tmp_path):
        config = _write_config(tmp_path, "vqe", files=[str(tmp_path / "absent.ham")])
        out = tmp_path / "o.csv"
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_MISSING_HAMILTONIAN
        assert not out.exists()

    def test_algorithm_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "qcmx")
        config.write_text(
            config.read_text(encoding="utf-8").replace("cmx-order = 3", "cmx-order = 1"),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_ALGORITHM
        assert "algorithm error at 'h2'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algorithm_is_a_config_error_before_any_hamiltonian_is_read(
        self, tmp_path, capsys
    ):
        # the sweep's file is absent, so reading it would exit 2
        config = _write_config(tmp_path, "vqe", files=[str(tmp_path / "absent.ham")])
        config.write_text(
            config.read_text(encoding="utf-8").replace("algorithm = vqe", "algorithm = vqee"),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        with mock.patch.object(cli, "load_hamiltonian") as loaded:
            for verb in ("run", "spectrum"):
                assert _main(verb, config, out) == cli.EXIT_CONFIG
        assert loaded.call_count == 0
        err = capsys.readouterr().err
        assert "config error: no algorithm named 'vqee'" in err
        assert "algorithm error" not in err
        assert not out.exists()

    def test_missing_kernel_file_is_a_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "vqe")
        (tmp_path / "h2.kernel").unlink()
        for verb in ("run", "spectrum"):
            assert _main(verb, config, tmp_path / "o.csv") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: cannot read kernel file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section",
        ["[ansatz]\nkind = nope\n", "", "[ansatz]\nkind = uccsd\nnq = 4\n"],
        ids=["unknown-kind", "no-section", "uccsd-without-ne"],
    )
    def test_bad_ansatz_is_a_config_error(self, tmp_path, capsys, section):
        config = _write_config(tmp_path, "qeom")
        kernel = tmp_path / "h2.kernel"
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace(f"[ansatz]\nkind = kernel\nfile = {kernel}\n", section),
            encoding="utf-8",
        )
        for verb in ("run", "spectrum"):
            assert _main(verb, config, tmp_path / "o.csv") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err

    def test_negative_shots_is_a_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "vqe")
        out = tmp_path / "o.csv"
        assert _main("run", config, out, "--shots", "-1") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: shots must be >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section",
        ["[qite]\nstep-size = 0.1\nsteps = two\n", "[qite]\nstep-size = big\nsteps = 2\n"],
        ids=["int-key", "real-key"],
    )
    def test_malformed_typed_key_is_a_config_error(self, tmp_path, capsys, section):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8")
            .replace("algorithm = vqe", "algorithm = qite")
            .replace(SECTIONS["vqe"], section),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "algorithm error" not in err
        assert not out.exists()

    def test_initial_point_from_the_section(self, tmp_path, h2_spectrum):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8") + "initial-point = 0.3\n", encoding="utf-8"
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_OK
        _, _, rows = _read(out)
        assert float(rows[0]["opt-val"]) == pytest.approx(h2_spectrum[0], abs=1e-6)

    def test_malformed_initial_point_is_a_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8") + "initial-point = a\n", encoding="utf-8"
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bounds_from_the_section_confine_the_run(self, tmp_path, h2_spectrum):
        """The unbounded optimum is the ground state at t = -2.93; with
        t >= 0.5 the run stops at the bound, E(0.5) = 0.540550."""
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8") + "lower-bounds = 0.5\nupper-bounds = 1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_OK
        _, _, rows = _read(out)
        assert float(rows[0]["opt-val"]) == pytest.approx(0.540550, abs=1e-6)
        assert float(rows[0]["opt-val"]) > h2_spectrum[0] + 1.0

    @pytest.mark.parametrize("key", ["lower-bounds", "upper-bounds"])
    def test_malformed_bounds_are_a_config_error(self, tmp_path, capsys, key):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8") + f"{key} = a\n", encoding="utf-8"
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_qite_from_a_symbolic_kernel_is_a_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8")
            .replace("algorithm = vqe", "algorithm = qite")
            .replace(SECTIONS["vqe"], "[qite]\nstep-size = 0.1\nsteps = 2\n"),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: qite needs a concrete ansatz" in err
        assert "['t']" in err
        assert "algorithm error" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm, strategy",
        [("vqe", "bogus"), ("adapt", "central"), ("qeom", "bogus")],
        ids=["unknown-under-vqe", "under-adapt", "under-qeom"],
    )
    def test_bad_gradient_strategy_is_a_config_error(self, tmp_path, capsys, algorithm, strategy):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8")
            .replace("algorithm = vqe", f"algorithm = {algorithm}")
            .replace("[vqe]", f"[{algorithm}]")
            + f"gradient-strategy = {strategy}\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "gradient-strategy" in err
        assert "algorithm error" not in err
        assert not out.exists()

    def test_gradient_strategy_reaches_vqe(self, tmp_path, monkeypatch, h2_spectrum):
        from qcsim.algorithms import vqe

        strategies = []
        original = vqe.evaluate_gradient
        monkeypatch.setattr(
            vqe, "evaluate_gradient", lambda s, *args: strategies.append(s) or original(s, *args)
        )
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8").replace("nelder-mead", "gradient-descent")
            + "gradient-strategy = parameter-shift\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_OK
        assert strategies and set(strategies) == {"parameter-shift"}
        _, _, rows = _read(out)
        assert float(rows[0]["opt-val"]) == pytest.approx(h2_spectrum[0], abs=1e-6)

    @pytest.mark.parametrize("algorithm", ["vqe", "qeom"], ids=["declared", "binding-vqe"])
    def test_unknown_optimizer_is_a_config_error_before_any_hamiltonian_is_read(
        self, tmp_path, capsys, algorithm
    ):
        """VQE declares ``optimizer``; QEOM from the symbolic kernel reads it
        for the VQE that binds the kernel first."""
        # the sweep's file is absent, so reading it would exit 2
        config = _write_config(tmp_path, algorithm, files=[str(tmp_path / "absent.ham")])
        config.write_text(
            config.read_text(encoding="utf-8").replace("nelder-mead", "no-such")
            + ("optimizer = no-such\n" if algorithm == "qeom" else ""),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        with mock.patch.object(cli, "load_hamiltonian") as loaded:
            for verb in ("run", "spectrum"):
                assert _main(verb, config, out) == cli.EXIT_CONFIG
        assert loaded.call_count == 0
        err = capsys.readouterr().err
        assert "config error: no optimizer named 'no-such'" in err
        assert "algorithm error" not in err
        assert not out.exists()


class TestDeclaredKeys:
    """Every section takes only its declared keys: the CLI's own sections
    those of ``cli._SECTION_KEYS``, an algorithm's section those of its
    ``option_kinds``, and ``optimizer`` where an optimizer is read."""

    # (algorithm, section, line): one misspelt or stale key per section
    UNDECLARED = {
        "run-shot": ("vqe", "[run]", "shot = 4000"),
        "hamiltonian-label": ("vqe", "[hamiltonian]", "label = h2"),
        "hamiltonian-file": ("vqe", "[hamiltonian]", "file = x.ham"),
        "ansatz-param": ("vqe", "[ansatz]", "param = 0.1"),
        "vqe-max-iter": ("vqe", "[vqe]", "max-iter = 3"),
        "qite-stpes": ("qite", "[qite]", "stpes = 40"),
        "qite-ridge": ("qite", "[qite]", "ridge = 1e-6"),
        "qeom-overlap_threshold": ("qeom", "[qeom]", "overlap_threshold = 0.5"),
        "qeom-overlap-threshold": ("qeom", "[qeom]", "overlap-threshold = 1e-10"),
        "adapt-sub-algorithm": ("adapt", "[adapt]", "sub-algorithm = vqe"),
        # an optimizer is read only where the algorithm declares one or the
        # CLI binds a symbolic ansatz by VQE; these ansatzes are bound
        "qite-optimizer": ("qite", "[qite]", "optimizer = no-such"),
        "qeom-optimizer": ("qeom", "[qeom]", "optimizer = no-such"),
    }
    DIMER_SECTIONS = {
        "qite": "[qite]\nsteps = 2\nstep-size = 0.1\n",
        "qeom": "[qeom]\nn-electrons = 2\n",
        "adapt": "[adapt]\nn-electrons = 2\n",
    }

    def _config(self, tmp_path, algorithm):
        if algorithm == "vqe":
            return _write_config(tmp_path, "vqe")
        config = tmp_path / "dimer.ini"
        config.write_text(
            f"[run]\nalgorithm = {algorithm}\n"
            f"[hamiltonian]\nfiles = {DIMER_PATH}\n"
            "[ansatz]\nkind = uccsd\nne = 2\nnq = 4\nparams = 0, 0, 0\n"
            + self.DIMER_SECTIONS[algorithm],
            encoding="utf-8",
        )
        return config

    @pytest.mark.parametrize("algorithm, section, line", UNDECLARED.values(), ids=UNDECLARED.keys())
    def test_an_undeclared_key_is_a_config_error(self, tmp_path, capsys, algorithm, section, line):
        config = self._config(tmp_path, algorithm)
        out = tmp_path / "o.csv"
        # without the key the config runs
        assert _main("run", config, out) == cli.EXIT_OK
        out.unlink()
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace(f"{section}\n", f"{section}\n{line}\n"), encoding="utf-8")
        for verb in ("run", "spectrum"):
            assert _main(verb, config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {section} takes no {line.split(' = ')[0]}; it declares" in err
        assert "algorithm error" not in err
        assert not out.exists()

    def test_a_key_the_run_supplies_cannot_be_set(self, tmp_path, capsys):
        config = _write_config(tmp_path, "vqe")
        config.write_text(
            config.read_text(encoding="utf-8") + "observable = h2\n", encoding="utf-8"
        )
        out = tmp_path / "o.csv"
        assert _main("run", config, out) == cli.EXIT_CONFIG
        assert "config error: key 'observable'" in capsys.readouterr().err
        assert not out.exists()


class TestSampledSeed:
    SAMPLED = "[vqe]\noptimizer = nelder-mead\nmax-iterations = 15\n"

    def _sampled_config(self, tmp_path):
        config = _write_config(tmp_path, "vqe")
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace(SECTIONS["vqe"], self.SAMPLED).replace(
                "[hamiltonian]", "shots = 200\n[hamiltonian]"
            ),
            encoding="utf-8",
        )
        return config

    def test_drawn_seed_is_recorded_and_reproduces(self, tmp_path):
        config = self._sampled_config(tmp_path)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert _main("run", config, first) == cli.EXIT_OK
        header, _, _ = _read(first)
        seed_line = header[2]
        assert seed_line.startswith("# seed=")
        seed = int(seed_line[len("# seed="):])
        assert 0 <= seed < 2**32
        assert _main("run", config, second, "--seed", str(seed)) == cli.EXIT_OK
        assert second.read_bytes() == first.read_bytes()

    def test_given_seed_is_recorded(self, tmp_path):
        config = self._sampled_config(tmp_path)
        out = tmp_path / "out.csv"
        assert _main("spectrum", config, out, "--seed", "17") == cli.EXIT_OK
        assert _read(out)[0][2] == "# seed=17"

    def test_exact_run_leaves_seed_blank(self, tmp_path):
        config = self._sampled_config(tmp_path)
        out = tmp_path / "out.csv"
        assert _main("run", config, out, "--shots", "0") == cli.EXIT_OK
        assert _read(out)[0][2] == "# seed="


def test_config_error_is_a_qcsim_error():
    assert issubclass(cli.ConfigError, QcsimError)


def test_list_prints_the_four_service_kinds(capsys):
    assert cli.main(["list"]) == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    kinds = [line.split(":", 1)[0] for line in printed]
    assert kinds == ["accelerator", "optimizer", "algorithm", "compiler"]


def test_adapt_that_appends_nothing_reports_the_reference_energy(tmp_path):
    """No pool gradient of |1100> on the orbital-basis dimer reaches 1000."""
    path = DIMER_PATH.with_name("hubbard_dimer_mo.ham")
    config = tmp_path / "adapt.ini"
    config.write_text(
        f"[run]\nalgorithm = adapt\n[hamiltonian]\nfiles = {path}\n"
        "[adapt]\nn-electrons = 2\ngrad-threshold = 1000\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert _main("run", config, out) == cli.EXIT_OK
    _, _, rows = _read(out)
    reference = np.zeros(16)
    reference[0b1100] = 1.0
    matrix = pauli.to_matrix(pauli.load_hamiltonian(str(path)), 4).real
    assert float(rows[0]["opt-val"]) == pytest.approx(reference @ matrix @ reference, abs=1e-11)


@pytest.mark.parametrize("shots, reason", [("0", "tolerance"), ("4000", "noise-floor")])
def test_verbose_spectrum_reports_the_binding_vqe_stop(tmp_path, capsys, shots, reason):
    """The VQE that binds a symbolic ansatz prints why it stopped and after
    how many evaluations; sampled, it stops at the noise floor."""
    config = _write_config(tmp_path, "qcmx")
    flags = ("--shots", shots, "--seed", "7", "--verbose")
    assert _main("spectrum", config, tmp_path / "out.csv", *flags) == cli.EXIT_OK
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "vqe" in line]
    assert line.startswith(f"bound ansatz by vqe: {reason} after ")
    assert line.endswith(" evaluations")
