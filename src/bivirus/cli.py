"""Command-line front end.

Subcommands:

    analyze         reproduction numbers, equilibrium table, boundary
                    stability, dominance tests, degeneracy flags
    simulate        integrate configured initial conditions, one CSV per
                    run plus a summary mapping runs to limit labels
    sandwich        the two-corner bounding simulation and its verdict
    cases           run the four bundled two-node case studies end to end
                    and grade every value against the reference table
    construct-line  build a line-of-equilibria system from B1 and verify it

Configs are JSON documents (version key, matrices as nested row-major
arrays; recovery matrices may be given as length-n vectors).  Exit codes:
0 success, 1 case-study cell failure, 2 validation/config error,
3 inconclusive numerics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cases as case_lib
from . import equilibria, model, sim
from .exceptions import (ConvergenceError, DomainError, IntegrationError,
                         ValidationError)
from .model import BivirusSystem, State

CONFIG_VERSION = 1
#: absolute tolerance for grading case-study cells against the 3-decimal
#: reference coordinates
CASE_CELL_TOL = 5e-3

EXIT_OK = 0
EXIT_CELL_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# config handling

class ConfigError(Exception):
    pass


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}:{e.lineno}:{e.colno}: malformed JSON: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = cfg.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"{path}: unsupported config version {version!r} "
                          f"(expected {CONFIG_VERSION})")
    return cfg


def _numeric(value, what, path, kind=float):
    """kind(value); a value it rejects is a ConfigError naming the file."""
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {what} must be numeric, "
                          f"got {value!r}") from e


def _floats(value):
    return np.asarray(value, dtype=float)


def system_from_config(cfg, path="<config>"):
    """The `equilibria.Analysis` of the config's system, validated once.
    An invalid system is a ConfigError naming the file."""
    spec = cfg.get("system")
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: missing 'system' object")
    missing = [k for k in ("B1", "B2") if k not in spec]
    if missing:
        raise ConfigError(f"{path}: system lacks {', '.join(missing)}")
    B1, B2 = (_numeric(spec[k], k, path, _floats) for k in ("B1", "B2"))
    n = B1.shape[0] if B1.ndim == 2 else 0
    D1, D2 = (_numeric(spec.get(k, np.eye(n)), k, path, _floats)
              for k in ("D1", "D2"))
    try:
        return equilibria.analysis(BivirusSystem(B1, D1, B2, D2))
    except (ValidationError, DomainError) as e:
        raise ConfigError(f"{path}: invalid system: {e}") from e


def states_from_config(cfg, n, path="<config>"):
    raw = cfg.get("initial_conditions")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: missing 'initial_conditions' list")
    states = []
    for i, item in enumerate(raw):
        try:
            x1, x2 = (np.asarray(item[k], float) for k in ("x1", "x2"))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: initial_conditions[{i}] needs "
                              f"'x1' and 'x2' arrays of numbers") from e
        if x1.shape != (n,) or x2.shape != (n,):
            raise ConfigError(f"{path}: initial_conditions[{i}] needs "
                              f"'x1' and 'x2' of length {n}, got shapes "
                              f"{x1.shape} and {x2.shape}")
        states.append(State(x1, x2))
    return states


#: The range each checked setting must lie in, in words and as a test.  The
#: library refuses most of these values too, but names its own parameter.
_RANGES = {
    "tol": ("finite and >= 0", lambda v: 0.0 <= v < math.inf),
    "agree_tol": ("finite and >= 0", lambda v: 0.0 <= v < math.inf),
    "t_end": ("finite and > 0", lambda v: 0.0 < v < math.inf),
    "record_interval": ("finite and > 0", lambda v: 0.0 < v < math.inf),
    "eta": ("in (0, 0.1]", lambda v: 0.0 < v <= 0.1),
    "mu": ("finite and > 0", lambda v: 0.0 < v < math.inf),
    "blend_weight": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}


def _setting(args, cfg, key, default):
    """The command's flag for key when given, else the config's value as a
    float, else default.  A flag or config value outside key's `_RANGES`
    entry is refused (DomainError), naming the flag or config key set."""
    value = getattr(args, key, None)
    if value is not None:
        where = f"--{key.replace('_', '-')}"
    elif key in cfg:
        where = f"{args.config}: {key}"
        value = _numeric(cfg[key], key, args.config)
    else:
        return default
    if key in _RANGES and not _RANGES[key][1](value):
        raise DomainError(f"{where} must be {_RANGES[key][0]}, got {value:g}")
    return value


# ---------------------------------------------------------------------------
# formatting helpers

def _fmt_vec(v, nd=4):
    return "[" + ", ".join(f"{x:.{nd}f}" for x in v) + "]"


def _csv_num(x) -> str:
    return f"{x:.17g}"


def _write_text(out_dir, name, text):
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8", newline="\n")


def _emit(args, stem, doc, text):
    """Print doc as JSON under --json, else text, and write what was
    printed to <stem>.json or <stem>.txt in --out when given."""
    if args.json:
        text = json.dumps(doc, indent=2) + "\n"
    print(text, end="")
    _write_text(args.out, f"{stem}.{'json' if args.json else 'txt'}", text)


# ---------------------------------------------------------------------------
# analyze

@dataclass
class AnalysisReport:
    n: int
    reproduction_numbers: tuple
    enumeration: equilibria.EnumerationResult
    boundary: tuple
    sufficient: equilibria.SufficientConditions | None


def build_analysis_report(
        system: BivirusSystem | equilibria.Analysis) -> AnalysisReport:
    """The full report on a system or its `equilibria.Analysis`."""
    a = equilibria.analysis(system)
    r1, r2 = a.R
    enum = equilibria.enumerate_equilibria(a)
    boundary = equilibria.boundary_stability(a)
    sufficient = None
    if r1 > 1.0 and r2 > 1.0:
        sufficient = equilibria.sufficient_conditions(a)
    return AnalysisReport(n=a.system.n, reproduction_numbers=(r1, r2),
                          enumeration=enum, boundary=boundary,
                          sufficient=sufficient)


def render_analysis_text(rep: AnalysisReport) -> str:
    lines = []
    lines.append("bivirus analysis")
    lines.append("================")
    lines.append(f"nodes: {rep.n}")
    r1, r2 = rep.reproduction_numbers
    lines.append(f"reproduction numbers: R1 = {r1:.4f}, R2 = {r2:.4f}")
    lines.append("")
    eqs = rep.enumeration.equilibria
    lines.append(f"equilibria ({len(eqs)}):")
    for e in eqs:
        lines.append(f"  {e.kind:16s} x1={_fmt_vec(e.state.x1)} "
                     f"x2={_fmt_vec(e.state.x2)} class={e.spectrum_class:17s} "
                     f"abscissa={e.abscissa:+.4f} residual={e.residual:.1e}")
    lines.append("")
    lines.append("boundary stability (cross-infection spectral test):")
    for label, verdict in zip(("(x1_bar, 0)", "(0, x2_bar)"), rep.boundary):
        if verdict is None:
            lines.append(f"  {label}: absent (virus subcritical)")
        else:
            lines.append(f"  {label}: rho_cross = {verdict.rho_cross:.4f} "
                         f"-> {verdict.verdict}")
    lines.append("")
    if rep.sufficient is not None:
        lines.append("coexistence-excluding sufficient conditions:")
        lines.append(f"  entrywise_dominance: {rep.sufficient.entrywise_dominance}")
        lines.append(f"  profile_dominance:   {rep.sufficient.profile_dominance}")
        lines.append("")
    if rep.enumeration.line_degeneracy_suspected:
        lines.append("degeneracy: LINE OF EQUILIBRIA SUSPECTED "
                     "(an equilibrium sits on the singular classification "
                     "boundary; parameters are nongeneric)")
    else:
        lines.append("degeneracy: none suspected")
    lines.append("")
    return "\n".join(lines)


def analysis_to_dict(rep: AnalysisReport) -> dict:
    def verdict_dict(v):
        if v is None:
            return None
        return {"rho_cross": v.rho_cross, "verdict": v.verdict}

    doc = {
        "n": rep.n,
        "reproduction_numbers": list(rep.reproduction_numbers),
        "equilibria": [
            {
                "kind": e.kind,
                "x1": e.state.x1.tolist(),
                "x2": e.state.x2.tolist(),
                "spectrum_class": e.spectrum_class,
                "abscissa": e.abscissa,
                "residual": e.residual,
                "degenerate": e.degenerate,
            }
            for e in rep.enumeration.equilibria
        ],
        "boundary_stability": {
            "virus1": verdict_dict(rep.boundary[0]),
            "virus2": verdict_dict(rep.boundary[1]),
        },
        "sufficient_conditions": None,
        "line_degeneracy_suspected": rep.enumeration.line_degeneracy_suspected,
    }
    if rep.sufficient is not None:
        doc["sufficient_conditions"] = {
            "entrywise_dominance": rep.sufficient.entrywise_dominance,
            "profile_dominance": rep.sufficient.profile_dominance,
        }
    return doc


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    rep = build_analysis_report(system_from_config(cfg, args.config))
    _emit(args, "analysis", analysis_to_dict(rep), render_analysis_text(rep))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def trajectory_to_csv(traj: sim.Trajectory) -> str:
    n = traj.states.shape[1] // 2
    header = ("t,"
              + ",".join(f"x1_{i + 1}" for i in range(n)) + ","
              + ",".join(f"x2_{i + 1}" for i in range(n)))
    rows = [header]
    for t, row in zip(traj.times, traj.states):
        rows.append(",".join([_csv_num(t)] + [_csv_num(v) for v in row]))
    return "\n".join(rows) + "\n"


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    a = system_from_config(cfg, args.config)
    starts = states_from_config(cfg, a.system.n, args.config)
    if args.out is None:
        raise ConfigError("simulate requires --out for the CSV files")
    t_end = _setting(args, cfg, "t_end", sim.DEFAULT_T_END)
    tol = _setting(args, cfg, "tol", sim.DEFAULT_STOP_TOL)
    record = _setting(args, cfg, "record_interval", 1.0)
    eq_list = equilibria.enumerate_equilibria(a).equilibria
    # Repeated kinds are told apart by a suffix: kind, kind_2, ...
    counts = {}
    eq_labels = []
    for e in eq_list:
        counts[e.kind] = counts.get(e.kind, 0) + 1
        eq_labels.append(e.kind if counts[e.kind] == 1
                         else f"{e.kind}_{counts[e.kind]}")

    summary = ["run,file,label"]
    written = 0
    for i, s0 in enumerate(starts):
        name = f"run_{i:03d}.csv"
        if not model.in_feasible_set(s0, 0.0):
            print(f"warning: initial condition {i} outside the feasible set; "
                  "skipped", file=_sys.stderr)
            summary.append(f"{i},{name},skipped_infeasible")
            continue
        traj = sim.integrate(a, s0, t_end, record_interval=record,
                             stop_tol=tol)
        # the directory is made with the first file, so a run refused for
        # its settings leaves nothing behind
        _write_text(args.out, name, trajectory_to_csv(traj))
        if traj.outcome.kind == "converged":
            (k,) = sim.nearest_equilibrium(traj.final_vector, eq_list)
            label = eq_labels[k] if k >= 0 else "unresolved"
        else:
            label = traj.outcome.kind
        summary.append(f"{i},{name},{label}")
        written += 1
    _write_text(args.out, "summary.csv", "\n".join(summary) + "\n")
    if written == 0:
        print("error: every initial condition was skipped", file=_sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {written} trajectory file(s) to {Path(args.out)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sandwich

def sandwich_to_dict(res: sim.SandwichResult) -> dict:
    def state_list(s):
        return None if s is None else {"x1": s.x1.tolist(), "x2": s.x2.tolist()}

    return {
        "eta": res.eta,
        "conclusive": res.conclusive,
        "agree": res.agree,
        "limit_A": state_list(res.limit_A),
        "limit_B": state_list(res.limit_B),
        "retired": list(res.retired),
    }


def render_sandwich_text(res: sim.SandwichResult) -> str:
    lines = ["sandwich test", "============="]
    lines.append(f"eta = {res.eta:g}")
    if not res.conclusive:
        lines.append("INCONCLUSIVE: a corner trajectory failed to converge "
                     "by t_end.")
        return "\n".join(lines) + "\n"
    lines.append(f"corner A limit: x1={_fmt_vec(res.limit_A.x1)} "
                 f"x2={_fmt_vec(res.limit_A.x2)}")
    lines.append(f"corner B limit: x1={_fmt_vec(res.limit_B.x1)} "
                 f"x2={_fmt_vec(res.limit_B.x2)}")
    if res.agree:
        lines.append("verdict: AGREE -- the two corner trajectories share one "
                     "limit, so every interior initial condition converges "
                     "to it.")
    else:
        a = res.limit_A.as_vector()
        b = res.limit_B.as_vector()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        lines.append("verdict: DISAGREE -- all interior limits lie in the "
                     "hyperrectangle W spanned by the two limits:")
        lines.append(f"  W extents: {_fmt_vec(lo)} .. {_fmt_vec(hi)}")
        lines.append("  advisory: an unstable equilibrium is guaranteed to "
                     "lie strictly inside W.")
    return "\n".join(lines) + "\n"


def cmd_sandwich(args) -> int:
    cfg = load_config(args.config)
    a = system_from_config(cfg, args.config)
    eta = _setting(args, cfg, "eta", sim.DEFAULT_ETA)
    t_end = _setting(args, cfg, "t_end", sim.DEFAULT_T_END)
    tol = _setting(args, cfg, "tol", sim.DEFAULT_STOP_TOL)
    agree_tol = _setting(args, cfg, "agree_tol", 1e-6)
    res = sim.sandwich_test(a, eta=eta, t_end=t_end, tol=agree_tol,
                            stop_tol=tol)
    _emit(args, "sandwich", sandwich_to_dict(res), render_sandwich_text(res))
    return EXIT_OK if res.conclusive else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# cases

def _grade(label, computed, reference, tol=CASE_CELL_TOL):
    diff = float(np.max(np.abs(np.asarray(computed, float)
                               - np.asarray(reference, float))))
    ok = diff <= tol
    return ok, (f"  [{'PASS' if ok else 'FAIL'}] {label}: computed "
                f"{_fmt_vec(np.atleast_1d(computed))} vs reference "
                f"{_fmt_vec(np.atleast_1d(reference))} (max diff {diff:.2e})")


def _grade_flag(label, computed, expected):
    ok = computed == expected
    return ok, (f"  [{'PASS' if ok else 'FAIL'}] {label}: computed "
                f"{computed!r} vs expected {expected!r}")


def run_case(case: case_lib.CaseStudy, t_end: float = sim.DEFAULT_T_END):
    """Grade one bundled case study.  Returns (all_ok, report_lines, doc)."""
    a = equilibria.analysis(case.system())
    lines = [f"{case.name}: B2 = {np.array2string(case.B2, separator=', ')}"]
    ok_all = True
    rep = build_analysis_report(a)
    enum = rep.enumeration

    for kind, ref in case.reference.items():
        if ref is None:
            ok, line = _grade_flag(f"{kind} count", len(enum.of_kind(kind)), 0)
        else:
            got = enum.of_kind(kind)
            if len(got) != 1:
                ok, line = False, (f"  [FAIL] {kind}: expected exactly one, "
                                   f"found {len(got)}")
            else:
                ref_vec = np.concatenate([ref[0], ref[1]])
                ok, line = _grade(f"{kind} coordinates",
                                  got[0].coordinates(), ref_vec)
        ok_all &= ok
        lines.append(line)

    for kind, expected in case.expected_class.items():
        got = enum.of_kind(kind)
        cls = got[0].spectrum_class if len(got) == 1 else "missing"
        ok, line = _grade_flag(f"{kind} class", cls, expected)
        ok_all &= ok
        lines.append(line)

    # the spectral boundary test must agree with the Jacobian classification
    for verdict, kind in zip(rep.boundary,
                             ("boundary_virus1", "boundary_virus2")):
        got = enum.of_kind(kind)
        if verdict is None or len(got) != 1:
            ok, line = False, f"  [FAIL] {kind}: verdict/classification missing"
        else:
            ok, line = _grade_flag(f"{kind} spectral-vs-Jacobian agreement",
                                   equilibria.VERDICT_CLASS[verdict.verdict],
                                   got[0].spectrum_class)
        ok_all &= ok
        lines.append(line)

    ok, line = _grade_flag("line degeneracy flag",
                           enum.line_degeneracy_suspected,
                           case.line_of_equilibria)
    ok_all &= ok
    lines.append(line)

    res = sim.sandwich_test(a, t_end=t_end)
    if case.sandwich == "agree":
        ok, line = _grade_flag("sandwich agreement", res.agree, True)
        ok_all &= ok
        lines.append(line)
        stable = [e for e in enum
                  if e.spectrum_class == "stable" and e.kind != "healthy"]
        if res.agree and len(stable) == 1:
            ok, line = _grade("sandwich common limit",
                              res.common_limit.as_vector(),
                              stable[0].coordinates())
            ok_all &= ok
            lines.append(line)
    elif case.sandwich == "disagree":
        ok, line = _grade_flag("sandwich split", res.agree, False)
        ok_all &= ok
        lines.append(line)
        coex = enum.of_kind("coexistence")
        if not res.agree and coex:
            inside = sim.hyperrectangle_contains(res, coex[0].state)
            ok, line = _grade_flag("coexistence point inside W", inside, True)
            ok_all &= ok
            lines.append(line)
    else:  # a line of equilibria: both limits must land on the segment
        for tag, limit in (("A", res.limit_A), ("B", res.limit_B)):
            if limit is None:
                ok, line = False, f"  [FAIL] corner {tag} did not converge"
            else:
                r = model.residual(a.ns, limit)
                ok = r <= 1e-8
                line = (f"  [{'PASS' if ok else 'FAIL'}] corner {tag} limit on "
                        f"the equilibrium line (residual {r:.1e})")
            ok_all &= ok
            lines.append(line)

    doc = {
        "case": case.name,
        "ok": ok_all,
        "equilibria": analysis_to_dict(rep)["equilibria"],
        "sandwich": sandwich_to_dict(res),
    }
    return ok_all, lines, doc


def cmd_cases(args) -> int:
    t_end = _setting(args, {}, "t_end", sim.DEFAULT_T_END)
    all_lines = ["bundled case studies", "====================", ""]
    docs = []
    ok_all = True
    for name in ("case1", "case2", "case3", "case4"):
        ok, lines, doc = run_case(case_lib.CASES[name], t_end=t_end)
        ok_all &= ok
        all_lines.extend(lines)
        all_lines.append("")
        docs.append(doc)
    all_lines.append("overall: " + ("ALL CELLS PASS" if ok_all
                                    else "CELL FAILURES PRESENT"))
    _emit(args, "cases", {"cases": docs, "ok": ok_all},
          "\n".join(all_lines) + "\n")
    return EXIT_OK if ok_all else EXIT_CELL_FAILURE


# ---------------------------------------------------------------------------
# construct-line

def cmd_construct_line(args) -> int:
    cfg = load_config(args.config)
    if "B1" not in cfg:
        raise ConfigError(f"{args.config}: construct-line config needs 'B1'")
    B1 = _numeric(cfg["B1"], "B1", args.config, _floats)
    mu = _setting(args, cfg, "mu", 1.0)
    c_matrix = cfg.get("c_matrix")
    if c_matrix is not None:
        c_matrix = _numeric(c_matrix, "c_matrix", args.config, _floats)
    blend = _setting(args, cfg, "blend_weight", 1.0)
    try:
        system, family = equilibria.construct_equilibrium_line(
            B1, mu=mu, c_matrix=c_matrix, blend_weight=blend)
    except DomainError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG

    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    residuals = [model.residual(system, family.line_state(a)) for a in alphas]
    endpoint = State(family.z, np.zeros(system.n))
    cls, absc = equilibria.classify_state(system, endpoint)
    verdict = {"stable": "locally stable", "unstable": "saddle",
               "singular_boundary": "critical (bifurcation point)"}[cls]

    lines = ["line-of-equilibria construction", "==============================="]
    lines.append(f"mu = {mu:g}")
    lines.append(f"z (shared profile) = {_fmt_vec(family.z, 6)}")
    lines.append("alpha-sample residuals along (alpha z, (1-alpha) z):")
    for a, r in zip(alphas, residuals):
        lines.append(f"  alpha = {a:4.2f}: residual = {r:.3e}")
    lines.append(f"(z, 0) endpoint verdict: {verdict} "
                 f"(abscissa {absc:+.4e})")
    if mu == 1.0:
        lines.append("at mu = 1 the whole segment consists of equilibria.")
    text = "\n".join(lines) + "\n"
    print(text, end="")

    if args.out is not None:
        doc = {
            "version": CONFIG_VERSION,
            "system": {
                "B1": system.B1.tolist(),
                "D1": system.D1.tolist(),
                "B2": system.B2.tolist(),
                "D2": system.D2.tolist(),
            },
            "construction": {
                "mu": mu,
                "z": family.z.tolist(),
                "C": family.C.tolist(),
                "alpha_residuals": dict(zip(map(str, alphas), residuals)),
                "endpoint_verdict": verdict,
            },
        }
        _write_text(args.out, "constructed_system.json",
                    json.dumps(doc, indent=2) + "\n")
        _write_text(args.out, "construction_report.txt", text)
        print(f"wrote {Path(args.out) / 'constructed_system.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bivirus",
        description="Analyze networked bivirus SIS dynamics: equilibria, "
                    "stability, and monotone-simulation bounds.")
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "--tol": dict(type=float, help="residual/convergence tolerance"),
        "--t-end": dict(type=float, help="integration horizon"),
        "--eta": dict(type=float, help="corner inset for the sandwich test"),
        "--json": dict(action="store_true",
                       help="emit a machine-readable JSON document"),
    }

    def command(name, about, *names, config=True):
        """A subcommand with --out and only the flags it reads."""
        sp = sub.add_parser(name, help=about)
        if config:
            sp.add_argument("--config", required=True,
                            help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        for flag in names:
            sp.add_argument(flag, **flags[flag])

    command("analyze", "equilibria and stability report", "--json")
    command("simulate", "integrate configured starts to CSV",
            "--tol", "--t-end")
    command("sandwich", "two-corner bounding simulation, one batch; a "
            "corner unconverged by t_end makes it inconclusive",
            "--tol", "--t-end", "--eta", "--json")
    command("cases", "run the bundled case studies", "--t-end", "--json",
            config=False)
    command("construct-line", "build a line-of-equilibria system")
    return p


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sandwich": cmd_sandwich,
    "cases": cmd_cases,
    "construct-line": cmd_construct_line,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except (ValidationError, DomainError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, IntegrationError) as e:
        print(f"numerical failure: {e}", file=_sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
