"""Command line entry point.

    ncham --model torus:p=2 bracket "u^2 v^2" "u^2 v^4"
    ncham --model cuntz:n=2 is-hamiltonian "s1 s2*"
    ncham --model matrix:n=2 check --seed 7
    ncham --presentation my.pres confluence

The model string is the one way to set a model's parameters, the ansatz
bound included (torus:p=2,B=4).  Each option may come before or after
the command; a value given after it wins, and `--` ends the options
wherever it stands.  `_parse_args` reads a command line with one parser,
built for the command it names, in one pass.  `run` takes one path:
check the bounds, build the model, gate it, parse, compute, print.

Exit codes: 0 success, 1 mathematical negative (not Hamiltonian, failed
check, non-confluent presentation, a derivation for iprod or lie that
fails its consistency check, an ansatz on which omega_tilde is singular,
printed as SINGULAR), 2 usage or parse error.  The Hamiltonian
commands (bracket, hamvec, is-hamiltonian, flow) on a presentation file
exit 1 unless its rules are locally confluent and each of its
derivations passes the consistency check, as `ModelDescriptor.require_sound`
decides.  The --format json flag switches to machine-readable reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .algebra import ReductionBudgetExceeded
from .exprparse import load_presentation, parse_derivation, \
    parse_expression
from .models import UnsoundPresentationError, build_model, check_bound
from .symplectic import HamiltonianSolver, NotHamiltonian, \
    NotHamiltonianError, SingularFormError

# Stated bound on the random trials per property of `check`; a trial
# takes tens of milliseconds on the built-in models.
MAX_CHECK_COUNT = 1000


# each option's add_argument keywords; all six take a value
OPTIONS = {
    "--model": dict(help="torus:p=2[,B=3] | matrix:n=2 | cuntz:n=2 | "
                         "polymat:D=3"),
    "--presentation": dict(help="presentation file path"),
    "--order": dict(type=int, default=2, help=(
        "flow truncation order, 0..%d (default %%(default)s)"
        % HamiltonianSolver.MAX_FLOW_ORDER)),
    "--seed": dict(type=int, default=2026, help="PRNG seed for check"),
    "--count": dict(type=int, default=25,
                    help="random trials per property in check, 1..%d"
                    % MAX_CHECK_COUNT),
    "--format": dict(choices=("text", "json"), default="text")}

THETA = ("derivation spec, e.g. 'u -> u^3 v^2, v -> 0' or 'h: s1 s2*' or "
         "'S: E12 - E21'")
# each command's own arguments, in argv order, with their help
COMMANDS = {"normalize": {"expr": None}, "d": {"expr": None},
            "iprod": {"theta": THETA, "expr": None},
            "lie": {"theta": THETA, "expr": None},
            "bracket": {"a": None, "b": None}, "hamvec": {"a": None},
            "is-hamiltonian": {"a": None},
            "flow": {"b": "Hamiltonian generating the flow",
                     "a": "element transported by the flow"},
            "check": {}, "confluence": {}}


def make_parser(command=None):
    """The parser of a command line: the six options, the command, and,
    when `command` is known, its own arguments and usage."""
    own = COMMANDS.get(command)
    ap = argparse.ArgumentParser(
        prog="ncham", usage=None if own is None else " ".join(
            ["%(prog)s", command, "[options]", *own]),
        description="Hamiltonian dynamics on noncommutative algebras")
    for name, kwargs in OPTIONS.items():
        ap.add_argument(name, **kwargs)
    ap.add_argument("command", choices=COMMANDS)
    for name, help in (own or {}).items():
        ap.add_argument(name, help=help)
    return ap


def _emit(args, payload, text):
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
        else:
            print(text, flush=True)
    except BrokenPipeError:
        # reader gone: keep the verdict, and write the rest to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class UsageError(Exception):
    pass


def _confluence_payload(rep, system):
    return {"status": "ok" if rep.all_joinable else "NOT_CONFLUENT",
            "critical_pairs": len(rep.pairs),
            "failures": [p.describe(system) for p in rep.failures()]}


def _not_consistent(args, lines):
    _emit(args, {"status": "NOT_CONSISTENT", "detail": lines},
          "\n".join(["NOT_CONSISTENT"] + lines))
    return 1


def _refuse_unsound(args, model, exc):
    """Print why a presentation file gives no Hamiltonian answers, and
    return exit code 1."""
    rep = exc.confluence
    if not rep.all_joinable:
        payload = _confluence_payload(rep, model.calculus.system)
        _emit(args, payload, "\n".join(
            ["NOT_CONFLUENT", rep.summary().splitlines()[0]]
            + ["  " + f for f in payload["failures"]]))
        return 1
    lines = []
    for theta, rep in exc.inconsistent:
        lines.append("derivation %s" % theta.label)
        lines.extend(rep.summary().splitlines())
    return _not_consistent(args, lines)


def run(args) -> int:
    if bool(args.model) == bool(args.presentation):
        raise UsageError("exactly one of --model/--presentation is required")
    cmd = args.command
    if cmd == "check":
        check_bound("check count", args.count, 1, MAX_CHECK_COUNT)
    if cmd == "flow":
        check_bound("flow order", args.order, 0,
                    HamiltonianSolver.MAX_FLOW_ORDER)
    model = (build_model(args.model) if args.model
             else load_presentation(args.presentation))
    if cmd in ("bracket", "hamvec", "is-hamiltonian", "flow"):
        if model.omega is None:
            raise UsageError("this command needs a symplectic model "
                             "(built-in, or a presentation file with "
                             "omega and derivation lines)")
        try:
            model.require_sound()
        except UnsoundPresentationError as exc:
            return _refuse_unsound(args, model, exc)

    if cmd == "check":
        return _run_check(args, model)
    if cmd == "confluence":
        rep = model.confluence()
        if rep is None:
            _emit(args, {"status": "ok",
                         "detail": "tensor backends have no presentation"},
                  "no presentation to check (tensor backend)")
            return 0
        system = model.calculus.system
        _emit(args, _confluence_payload(rep, system), rep.summary(system))
        return 0 if rep.all_joinable else 1
    if cmd in ("hamvec", "is-hamiltonian"):
        a = parse_expression(args.a, model)
        sol = model.solver.solve(a)
        ker = model.solver.kernel_report()
        size = len(model.space.basis)
        if isinstance(sol, NotHamiltonian):
            residual = {str(k): str(v) for k, v in sol.residual.items()}
            payload = {"status": "NOT_HAMILTONIAN", "residual": residual,
                       "kernel_dimension": ker.dimension,
                       "ansatz_size": size}
            _emit(args, payload, "NOT_HAMILTONIAN (relative to ansatz of %d "
                                 "derivations)" % size)
            return 1
        desc = sol.vector_field.describe()
        payload = {"status": "HAMILTONIAN", "field": desc, "residual": "0",
                   "kernel_dimension": ker.dimension}
        if cmd == "hamvec":
            # a matrix field lists only its nonzero images
            text = "\n".join("X(%s) = %s" % kv
                             for kv in sorted(desc.items())) or "X = 0"
        else:
            text = "HAMILTONIAN (relative to ansatz of %d derivations)" % size
        _emit(args, payload, text)
        return 0

    # every expression is parsed before model.solver is touched
    payload = None
    try:
        if cmd == "normalize":
            out = parse_expression(args.expr, model)
        elif cmd == "d":
            out = model.backend.d(parse_expression(args.expr, model))
        elif cmd in ("iprod", "lie"):
            theta = parse_derivation(args.theta, model)
            el = parse_expression(args.expr, model)
            rep = theta.consistency()
            if rep is not None and not rep.ok:
                return _not_consistent(args, rep.summary().splitlines())
            out = theta.iprod(el) if cmd == "iprod" else theta.lie(el)
        elif cmd == "bracket":
            a = parse_expression(args.a, model)
            b = parse_expression(args.b, model)
            out = model.solver.poisson(a, b)
        else:   # flow
            b = parse_expression(args.b, model)
            a = parse_expression(args.a, model)
            out = model.solver.flow(b, a, args.order)
            payload = {"status": "ok",
                       "coefficients": [str(c) for c in out.coefficients]}
    except NotHamiltonianError as exc:
        _emit(args, {"status": "NOT_HAMILTONIAN", "detail": str(exc)},
              "NOT_HAMILTONIAN: %s" % exc)
        return 1
    _emit(args, payload or {"status": "ok", "result": str(out)}, str(out))
    return 0


def _run_check(args, model) -> int:
    rng = random.Random(args.seed)
    lines = []
    ok_all = True

    def report(name, ok):
        nonlocal ok_all
        ok_all = ok_all and ok
        lines.append(("PASS" if ok else "FAIL", name))

    for name, ok, detail in model.certify():
        report("%s %s" % (name, detail) if detail else name, ok)

    if model.omega is not None or model.space.basis:
        failed = {}
        try:
            for _ in range(args.count):
                for name, res in model.cartan_residuals(rng).items():
                    failed[name] = not res.is_zero() or failed.get(name, False)
            for name, bad in failed.items():
                report("%s (%d trials, seed %d)" % (name, args.count, args.seed),
                       not bad)
        except ValueError as exc:
            report("property suite (%s)" % exc, False)

    payload = {"status": "ok" if ok_all else "FAILED",
               "checks": [{"result": r, "name": n} for r, n in lines],
               "seed": args.seed}
    text = "\n".join("%s %s" % ln for ln in lines)
    _emit(args, payload, text)
    return 0 if ok_all else 1


# words that argparse reads as positional though they start with "-"
_NOT_AN_OPTION = re.compile(r"-$|-\d+$|-\d*\.\d+$|.* ", re.DOTALL)


def _parse_args(argv):
    """Parse a command line with one parser, in one pass.

    A pre-scan sorts the words.  An option is named exactly, as
    --opt=value or by a long-name prefix, and takes the next word as its
    value; a "-" word before the command is an unknown option, an error
    at once.  The parser reads the options, "--", then the command and
    its words, so "-u" can be a value.  When enough words do not start
    with "-", no word argparse reads as an option is a value (`bracket u
    --bogus v` names --bogus); else the first words are the values
    (`normalize -u -v` names -v).  The words left over follow, in argv
    order, for argparse to name.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    takes_value = {"-h": False, "--help": False,
                   **dict.fromkeys(OPTIONS, True)}
    options, words = [], []     # words: (word, starts with "-" before "--")
    value_due = False
    for i, arg in enumerate(argv):
        if arg == "--":
            words += [(w, False) for w in argv[i + 1:]]
            break
        name = arg.partition("=")[0]
        named = [o for o in takes_value
                 if o == name or name[:2] == "--" and o.startswith(name)]
        if value_due or named:
            value_due = (not value_due and len(named) == 1 and name == arg
                         and takes_value[named[0]])
            if not words or words[0][0] in COMMANDS:
                options.append(arg)
        elif arg[:1] == "-" and not any(w in COMMANDS for w, _ in words):
            make_parser().error("unrecognized arguments: %s" % arg)
        else:
            words.append((arg, arg[:1] == "-"))
    command = words.pop(0)[0] if words else None
    need = len(COMMANDS.get(command, ()))
    plenty = sum(not dashed for _, dashed in words) >= need
    # argparse would strip a "--" given as a value
    values = [i for i, (w, dashed) in enumerate(words)
              if w != "--" and not (plenty and dashed
                                    and not _NOT_AN_OPTION.match(w))][:need]
    positionals = [command] * (command is not None) + [
        words[i][0] for i in values]
    if len(values) == need:     # else argparse names the missing value
        positionals += [w for i, (w, _) in enumerate(words)
                        if i not in values]
    return make_parser(command).parse_args(options + ["--"] + positionals)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return run(args)
    except SingularFormError as exc:
        _emit(args, {"status": "SINGULAR", "detail": str(exc)},
              "SINGULAR: %s" % exc)
        return 1
    except (UsageError, ValueError, OSError, ReductionBudgetExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
