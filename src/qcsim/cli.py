"""Batch command-line front end.

Verbs:
  spectrum    execute one algorithm over a Hamiltonian file (or sweep),
              one column per reported energy level/order
  run         the one-column spectrum: each algorithm's primary energy
              as ``opt-val``
  bench-uccsd time UCCSD circuit construction over (nq, ne) pairs, best
              of --repeats (at least 1) runs each
  list        print the service registry contents

Config files are INI-style ``key = value`` with ``[section]`` headers;
results are CSV with a ``#``-prefixed provenance header (config hash,
seed, version).  ``# seed=`` holds the sampling seed actually used: the
given one, or a drawn 32-bit seed when a sampled run (shots > 0) names
none; exact runs without a seed leave it blank.  Rerunning with
``--seed`` set to the recorded value reproduces the CSV.  All energies
are in Hartree.  ``[hamiltonian]`` names the sweep by ``files``, a comma
list, and optionally ``labels``, one per file (each file's stem by
default).  Each section takes only its declared keys: ``[run]``,
``[hamiltonian]`` and ``[ansatz]`` those of ``_SECTION_KEYS``, and the
algorithm's own section those of its ``option_kinds``, each value parsed
at its declared kind, and ``optimizer``, an optimizer's name, where an
optimizer is read: the algorithm declares one, or the CLI binds a
symbolic ansatz by VQE first.  Exit codes: 0 success, 1 config error,
raised before any Hamiltonian is read (the file, its ansatz or kernel
file, an unknown algorithm or optimizer, an undeclared key in any section,
a value not of its key's kind or choices, the shot count, or qite from an
ansatz with free variables; for bench-uccsd, a bad --nq/--ne list or
--repeats below 1, before any circuit is built), 2 missing Hamiltonian
file, 3 algorithm error.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import secrets
import sys
import time
from pathlib import Path

from . import __version__, get_accelerator, get_algorithm, get_optimizer
from .ansatz import UccsdSpec, count_double_excitations, hartree_fock_circuit, uccsd_circuit
from .backend import qalloc
from .errors import ConfigError, QcsimError
from .ir import evaluate
from .kernel import parse_kernel
from .pauli import load_hamiltonian
from .registry import HeterogeneousMap, ServiceKind, get_service, list_services

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISSING_HAMILTONIAN = 2
EXIT_ALGORITHM = 3

# the keys the CLI reads from each of its own sections
_SECTION_KEYS = {
    "run": ("algorithm", "shots", "seed", "out"),
    "hamiltonian": ("files", "labels"),
    "ansatz": ("kind", "ne", "nq", "file", "source", "params"),
}
# how an algorithm's config value is parsed at its declared kind; a value
# of any other kind is kept as text, which only a string kind accepts
_PARSERS = {"int": int, "real": float, "real-list": lambda raw: list(map(float, _split_list(raw)))}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _parse_config(path: str) -> configparser.ConfigParser:
    config = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = config.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not config.has_section("run"):
        raise ConfigError("config needs a [run] section")
    if not config.has_option("run", "algorithm"):
        raise ConfigError("[run] needs an 'algorithm' key")
    for name, keys in _SECTION_KEYS.items():
        if config.has_section(name):
            HeterogeneousMap(dict(config[name])).read_declared(
                dict.fromkeys(keys, "string"), f"[{name}]", ConfigError
            )
    return config


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _hamiltonian_files(config) -> list[tuple[str, str]]:
    """(label, path) pairs of the sweep."""
    if not config.has_section("hamiltonian"):
        raise ConfigError("config needs a [hamiltonian] section")
    section = config["hamiltonian"]
    files = _split_list(section.get("files", ""))
    if not files:
        raise ConfigError("[hamiltonian] needs 'files'")
    labels = _split_list(section.get("labels", ""))
    if labels and len(labels) != len(files):
        raise ConfigError("labels and files have different lengths")
    if not labels:
        labels = [Path(f).stem for f in files]
    return list(zip(labels, files))


def _build_ansatz(config):
    if not config.has_section("ansatz"):
        raise ConfigError("config needs an [ansatz] section")
    section = config["ansatz"]
    kind = section.get("kind", "").strip()
    if kind in ("uccsd", "hartree-fock"):
        missing = [key for key in ("ne", "nq") if not section.get(key, "").strip()]
        if missing:
            raise ConfigError(f"[ansatz] kind={kind} needs {', '.join(missing)}")
    if kind == "uccsd":
        circuit = uccsd_circuit(
            UccsdSpec(section.getint("ne"), section.getint("nq"))
        )
    elif kind == "hartree-fock":
        circuit = hartree_fock_circuit(section.getint("ne"), section.getint("nq"))
    elif kind == "kernel":
        if section.get("file", "").strip():
            path = section["file"].strip()
            try:
                source = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read kernel file {path}: {exc.strerror}") from exc
        elif section.get("source", "").strip():
            source = section["source"]
        else:
            raise ConfigError("[ansatz] kind=kernel needs 'source' or 'file'")
        circuit = parse_kernel(source)
    else:
        raise ConfigError(f"unknown ansatz kind '{kind}'")
    params_text = section.get("params", "").strip()
    if params_text:
        circuit = evaluate(circuit, [float(v) for v in _split_list(params_text)])
    return circuit


def _algorithm_options(config, algorithm: str, kinds: dict, ansatz) -> dict:
    """The algorithm's own section, each value parsed at the kind ``kinds``
    declares for its key.  ``optimizer`` names the optimizer where one is
    read, resolved here: the algorithm's own when it declares one, or that
    of the VQE run that binds a symbolic ``ansatz`` first (``nelder-mead``
    when not given); elsewhere it is undeclared."""
    section = dict(config[algorithm]) if config.has_section(algorithm) else {}
    binds = "optimizer" not in kinds and ansatz is not None and not ansatz.is_concrete
    name = section.pop("optimizer", "nelder-mead") if "optimizer" in kinds or binds else None
    options = {key: _PARSERS.get(kinds.get(key), str)(raw) for key, raw in section.items()}
    HeterogeneousMap(options).read_declared(kinds, f"[{algorithm}]", ConfigError)
    if name is not None:
        options["optimizer"] = get_optimizer(
            name, {"tolerance": 1e-14, "max-iterations": 2000} if binds else None
        )
    return options


def _prepare_ground_state(circuit, observable, accelerator, optimizer, verbose):
    """Bind a symbolic ansatz to its VQE-optimal parameters; verbose, print
    that VQE run's stop reason and evaluation count to stderr."""
    vqe = get_algorithm(
        "vqe",
        {
            "ansatz": circuit,
            "optimizer": optimizer,
            "observable": observable,
            "accelerator": accelerator,
        },
    )
    scratch = qalloc(max(circuit.max_qubit() + 1, observable.n_qubits(), 1))
    vqe.execute(scratch)
    if verbose:
        evaluations = len(scratch.metadata.get_real_list("energy-history"))
        reason = scratch.metadata.get_string("stop-reason")
        print(f"bound ansatz by vqe: {reason} after {evaluations} evaluations", file=sys.stderr)
    return evaluate(circuit, scratch.metadata.get_real_list("opt-params"))


def _execute_point(kinds, algorithm, options, observable, accelerator, ansatz, verbose):
    """Run one sweep point from the sweep's ansatz and options; returns the
    buffer.  An algorithm that takes no optimizer starts from the VQE
    optimum of a symbolic ansatz."""
    n_qubits = observable.n_qubits()
    options = dict(options)
    if "optimizer" not in kinds and "optimizer" in options:
        ansatz = _prepare_ground_state(
            ansatz, observable, accelerator, options.pop("optimizer"), verbose
        )
    if ansatz is not None:
        options["ansatz"] = ansatz
        n_qubits = max(n_qubits, ansatz.max_qubit() + 1)

    options["observable"] = observable
    options["accelerator"] = accelerator
    instance = get_algorithm(algorithm, options)
    buffer = qalloc(max(n_qubits, 1))
    if verbose:
        print(f"running {algorithm} on {n_qubits} qubit(s)", file=sys.stderr)
    instance.execute(buffer)
    return buffer


def _provenance(config_path: str, seed, out_lines: list[str]) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    out_lines.append(f"# qcsim-version={__version__}")
    out_lines.append(f"# config-sha256={digest}")
    out_lines.append(f"# seed={'' if seed is None else seed}")
    out_lines.append("# energies in Hartree")


def _accelerator_from(config, args):
    shots = args.shots
    if shots is None:
        shots = config.getint("run", "shots", fallback=0)
    seed = args.seed
    if seed is None and config.has_option("run", "seed"):
        seed = config.getint("run", "seed")
    if seed is None and shots > 0:
        seed = secrets.randbits(32)
    options = {"shots": shots}
    if seed is not None:
        options["seed"] = seed
    return get_accelerator("statevector", options), seed


def _out_path(config, args, default: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(config.get("run", "out", fallback=default))


def _spectrum_columns(algorithm: str, buffer) -> dict[str, float]:
    if algorithm == "qeom":
        columns = {"E0": buffer.metadata.get_real("ground-energy")}
        for i, energy in enumerate(
            buffer.metadata.get_real_list("excitation-energies"), start=1
        ):
            columns[f"ex{i}"] = energy
        return columns
    if algorithm == "qcmx":
        columns = {}
        for family in ("cmx", "pds", "knowles"):
            values = buffer.metadata.get_real_list(f"{family}-energies")
            for m, value in enumerate(values, start=2):
                columns[f"{family}{m}"] = value
        return columns
    if algorithm == "qite":
        history = buffer.metadata.get_real_list("energy-history")
        return {"E-initial": history[0], "E-final": history[-1]}
    return {"opt-val": buffer.metadata.get_real("opt-val")}


def _run_columns(algorithm: str, buffer) -> dict[str, float]:
    if algorithm == "qcmx":
        energy = buffer.metadata.get_real_list("pds-energies")[-1]
    elif algorithm == "qeom":
        energy = buffer.metadata.get_real("ground-energy")
    else:
        energy = buffer.metadata.get_real("opt-val")
    return {"opt-val": energy}


def _sweep(args, row_columns, default_out: str) -> int:
    """Run the configured algorithm at every sweep point and write the CSV.

    ``row_columns(algorithm, buffer)`` names the point's values;
    the header lists every column in first-seen order and a row lacking
    one leaves its cell blank.
    """
    try:
        config = _parse_config(args.config)
        sweep = _hamiltonian_files(config)
        algorithm = config.get("run", "algorithm")
        kinds = get_service(ServiceKind.ALGORITHM, algorithm).option_kinds
        ansatz = _build_ansatz(config) if "ansatz" in kinds else None
        if algorithm == "qite" and not ansatz.is_concrete:
            raise ConfigError(f"qite needs a concrete ansatz; bind {ansatz.variables} by params")
        options = _algorithm_options(config, algorithm, kinds, ansatz)
        accelerator, seed = _accelerator_from(config, args)
    except (QcsimError, configparser.Error, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    for label, path in sweep:
        if not Path(path).is_file():
            print(f"missing Hamiltonian file: {path}", file=sys.stderr)
            return EXIT_MISSING_HAMILTONIAN
        observable = load_hamiltonian(path)
        try:
            buffer = _execute_point(
                kinds, algorithm, options, observable, accelerator, ansatz, args.verbose
            )
            rows.append((label, row_columns(algorithm, buffer)))
        except (QcsimError, ValueError, KeyError) as exc:
            print(f"algorithm error at '{label}': {exc}", file=sys.stderr)
            return EXIT_ALGORITHM

    columns: list[str] = []
    for _, row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines: list[str] = []
    _provenance(args.config, seed, lines)
    lines.append("label," + ",".join(columns))
    for label, row in rows:
        cells = [(_fmt(row[c]) if c in row else "") for c in columns]
        lines.append(label + "," + ",".join(cells))
    out = _out_path(config, args, default_out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.verbose:
        print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    return _sweep(args, _run_columns, "results.csv")


def cmd_spectrum(args) -> int:
    return _sweep(args, _spectrum_columns, "spectrum.csv")


def cmd_bench_uccsd(args) -> int:
    try:
        nq_list = [int(v) for v in _split_list(args.nq)]
        ne_list = [int(v) for v in _split_list(args.ne)]
    except ValueError as exc:
        print(f"config error: bad --nq/--ne list: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.repeats < 1:
        print(f"config error: --repeats must be >= 1, got {args.repeats}", file=sys.stderr)
        return EXIT_CONFIG
    lines = [
        f"# qcsim-version={__version__}",
        "# best construction wall time over repeats; energies not involved",
        "nq,ne,double-excitations,variables,instructions,best-seconds",
    ]
    for nq in nq_list:
        for ne in ne_list:
            if not ne < nq // 2:
                print(
                    f"warning: skipping nq={nq}, ne={ne} (requires ne < nq/2)",
                    file=sys.stderr,
                )
                continue
            try:
                spec = UccsdSpec(ne, nq)
            except ValueError as exc:
                print(f"warning: skipping nq={nq}, ne={ne}: {exc}", file=sys.stderr)
                continue
            best = float("inf")
            for _ in range(args.repeats):
                start = time.perf_counter()
                circuit = uccsd_circuit(spec)
                best = min(best, time.perf_counter() - start)
            lines.append(
                f"{nq},{ne},{count_double_excitations(nq, ne)},"
                f"{len(circuit.variables)},{circuit.n_instructions()},{best:.6f}"
            )
    out = Path(args.out or "bench_uccsd.csv")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.verbose:
        print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def cmd_list(_args) -> int:
    for kind in ServiceKind:
        names = list_services(kind)
        if names:
            print(f"{kind.value}: {', '.join(names)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcsim", description="hybrid quantum-classical chemistry runner"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, handler in (("run", cmd_run), ("spectrum", cmd_spectrum)):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", help="results CSV path")
        p.add_argument("--shots", type=int, help="override shot count (0 = exact)")
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(handler=handler)

    bench = sub.add_parser("bench-uccsd")
    bench.add_argument("--nq", required=True, help="comma list of qubit counts")
    bench.add_argument("--ne", required=True, help="comma list of electron counts")
    bench.add_argument("--repeats", type=int, default=10)
    bench.add_argument("--out", help="results CSV path")
    bench.add_argument("--verbose", action="store_true")
    bench.set_defaults(handler=cmd_bench_uccsd)

    lister = sub.add_parser("list")
    lister.set_defaults(handler=cmd_list)
    return parser


# one parser per process, built on the first ``main`` call
_parser = functools.cache(build_parser)


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
