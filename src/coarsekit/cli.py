"""Command line front door: ingest JSON descriptions of spaces, covers, maps,
trees, and measures, run any operation, and emit a deterministic JSON report.

Exit codes: 0 when the requested certificate holds, 1 on a violation or
refusal (the report carries the witness), 2 on usage errors or malformed
input.  Reports never contain timing; pass ``--timing`` to print elapsed
seconds to stderr instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .controls import as_control
from .errors import (
    CertificateError,
    InputError,
    MetricError,
    PreconditionError,
    Refusal,
    check_number,
)
from .serialization import (
    action_from_json,
    digest,
    dim_sequence_from_json,
    dumps_report,
    family_from_json,
    family_to_json,
    map_from_json,
    mass_family_to_json,
    measure_from_json,
    space_from_json,
    space_to_json,
    tree_from_json,
    tree_to_json,
    witness_from_json,
    witness_to_json,
)

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2


class _UsageError(Exception):
    pass


def _load_json(path: str):
    """(decoded JSON, raw bytes) of a file, read once; failures are usage errors."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise _UsageError(f"input file not found: {path}")
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    try:
        return json.loads(data.decode("utf-8")), data
    except UnicodeDecodeError:
        raise _UsageError(f"{path} is not UTF-8 text")
    except json.JSONDecodeError as e:
        raise _UsageError(f"malformed JSON in {path} at line {e.lineno}, column {e.colno}")


def _decode(label: str, decode, obj, *ctx):
    """``decode(obj, *ctx)``; a missing field or bad content is a usage error naming ``label``."""
    try:
        return decode(obj, *ctx)
    except KeyError as e:
        raise _UsageError(f"{label}: missing field {e}")
    except (InputError, MetricError, TypeError, ValueError) as e:
        raise _UsageError(f"{label}: {e}")


def _control_arg(value: str):
    """A control given either inline as JSON or as a path to a JSON file."""
    try:
        obj = json.loads(value)
    except json.JSONDecodeError:
        obj, _ = _load_json(value)
    return _decode(f"control {value}", as_control, obj)


def _float_arg(value: str) -> float:
    """A float; NaN is a usage error, unparsable text stays argparse's "invalid float value"."""
    x = float(value)
    try:
        return check_number(x, "number")
    except InputError:  # float() never returns a non-number, so this is NaN
        raise _UsageError(f"NaN is not a valid number: {value!r}")


_float_arg.__name__ = "float"  # the type name argparse prints for unparsable text


def _scales_arg(value: str) -> list[float]:
    try:
        return [_float_arg(v) for v in value.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"cannot parse scale list {value!r}")


def _int_set_arg(value: str) -> frozenset:
    try:
        return frozenset(int(v) for v in value.split(",") if v != "")
    except ValueError:
        raise _UsageError(f"cannot parse index list {value!r}")


class _Inputs:
    """Loads inputs, remembers file digests for the report."""

    def __init__(self, args):
        self.args = args
        self.digests: dict = {}

    def load(self, attr, decode, *ctx):
        """Decode the JSON file named by ``args.<attr>``; bad content is a usage error."""
        path = getattr(self.args, attr)
        obj, data = _load_json(path)
        self.digests[attr] = digest(data)
        return _decode(path, decode, obj, *ctx)

    def load_map(self):
        """The map given by --map between the spaces of --domain and --codomain."""
        dom, cod = self.load("domain", space_from_json), self.load("codomain", space_from_json)
        return self.load("map", map_from_json, dom, cod)


# ---------------------------------------------------------------- handlers
# Each handler imports the library functions it calls, so a command loads
# only the modules it runs: ``coarse-kit space`` never loads covers, maps,
# trees, measures or the suites.


def _cmd_space(inp, args):
    sp = inp.load("space", space_from_json)
    return {"n": sp.n, "diam": sp.diam(), "labels": [str(l) for l in sp.labels]}


def _cmd_cover_dim(inp, args):
    from .covers import dim_at_scale, mesh

    sp = inp.load("space", space_from_json)
    cov = inp.load("cover", family_from_json, sp)
    return {
        "dim": dim_at_scale(cov, args.scale, closed=args.closed),
        "mesh": mesh(cov),
        "covers_space": cov.covers_space(),
    }


def _cmd_cover_disjointify(inp, args):
    from .covers import dim_at_scale, make_disjoint, mesh

    sp = inp.load("space", space_from_json)
    cov = inp.load("cover", family_from_json, sp)
    n = args.n if args.n is not None else dim_at_scale(cov, args.scale)
    colored, trace = make_disjoint(cov, args.scale, n)
    return {
        "n": n,
        "input_mesh": mesh(cov),
        "output_mesh": mesh(colored),
        "colors": colored.n_colors,
        "family": family_to_json(colored),
    }


def _cmd_cover_lebesgue(inp, args):
    from .covers import lebesgue_number, mesh

    sp = inp.load("space", space_from_json)
    cov = inp.load("cover", family_from_json, sp)
    return {"lebesgue_number": lebesgue_number(cov), "mesh": mesh(cov)}


def _cmd_map_control(inp, args):
    from .coarse_maps import control_upper, n_to_1_control

    f = inp.load_map()
    ctl = n_to_1_control(f, args.n, c_cap=args.c_cap)
    return {
        "n": ctl.n,
        "control": ctl.step,
        "relaxed_at": ctl.relaxed_at,
        "upper_control": control_upper(f),
    }


def _cmd_map_profile(inp, args):
    from .coarse_maps import n_to_1_profile

    f = inp.load_map()
    prof = n_to_1_profile(f, args.r, args.big_r)
    return {
        "max_components": prof.max_components,
        "max_component_diam": prof.max_component_diam,
        "witness_block": prof.witness,
        "exact": prof.exact,
    }


def _cmd_map_push(inp, args):
    from .coarse_maps import pushforward_cover
    from .covers import dim_at_scale

    f = inp.load_map()
    cov = inp.load("cover", family_from_json, f.domain)
    pushed = pushforward_cover(f, cov, args.r, args.n, args.control)
    m = dim_at_scale(cov, args.control(args.r), closed=args.control.expansion_closed())
    return {
        "input_dim": m,
        "bound": (m + 1) * args.n - 1,
        "output_dim": dim_at_scale(pushed, args.r),
        "family": family_to_json(pushed),
    }


def _cmd_map_factor(inp, args):
    from .coarse_maps import factorize

    f = inp.load_map()
    fac = factorize(f, args.big_r, args.n)
    return {
        "middle": space_to_json(fac.middle),
        "p_assign": fac.p.assign,
        "q_assign": fac.q.assign,
        "classes": fac.classes,
        "class_diam_bound": fac.class_diam_bound,
        "selection": fac.selection,
    }


def _cmd_quotient(inp, args):
    from .coarse_maps import group_quotient

    sp = inp.load("space", space_from_json)
    act = inp.load("action", action_from_json, sp)
    gq = group_quotient(act)
    return {
        "quotient": space_to_json(gq.quotient),
        "projection": gq.projection.assign,
        "orbits": gq.orbits,
        "group_order": gq.n,
        "control": gq.control,
        "symmetrized": space_to_json(gq.symmetrized),
    }


def _cmd_apc_witness(inp, args):
    from .dimension import apc_witness

    sp = inp.load("space", space_from_json)
    w = apc_witness(sp, args.scales, args.mesh_cap, budget=args.budget)
    return {"witness": witness_to_json(w)}


def _cmd_apc_normalize(inp, args):
    from .dimension import apc_normalize

    sp = inp.load("space", space_from_json)
    dsw = inp.load("witness", dim_sequence_from_json, sp)
    out = apc_normalize(dsw, args.gaps)
    return {"witness": witness_to_json(out)}


def _cmd_apc_push(inp, args):
    from .dimension import apc_pushforward

    f = inp.load_map()
    w = inp.load("witness", witness_from_json, f.domain)
    out = apc_pushforward(f, args.n, args.control, w, args.target_scales)
    return {"witness": witness_to_json(out)}


def _cmd_apc_pull(inp, args):
    from .dimension import apc_pullback

    f = inp.load_map()
    w = inp.load("witness", witness_from_json, f.codomain)
    out = apc_pullback(f, w, args.target_scales, args.bound)
    return {"witness": witness_to_json(out)}


def _cmd_tree_verify(inp, args):
    from .trees import verify_tree

    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    rep = verify_tree(t, args.mode)
    result = {
        "ok": rep.ok,
        "violations": rep.violations,
        "bounded_levels": rep.bounded_levels,
    }
    if not rep.ok:
        raise CertificateError("tree verification failed", witness=result)
    return result


def _cmd_tree_refine(inp, args):
    from .trees import partition_refine

    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    return {"tree": tree_to_json(partition_refine(t))}


def _cmd_tree_convert(inp, args):
    from .trees import casdim_to_sfdc

    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    return {"tree": tree_to_json(casdim_to_sfdc(t))}


def _cmd_tree_cover(inp, args):
    from .covers import dim_at_scale
    from .trees import tree_to_cover

    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    fam = tree_to_cover(t, args.scale)
    return {"family": family_to_json(fam), "dim": dim_at_scale(fam, args.scale)}


def _cmd_tree_push(inp, args):
    from .trees import tree_pushforward

    f = inp.load_map()
    t = inp.load("tree", tree_from_json, f.domain)
    out, audit = tree_pushforward(f, t, args.n, args.control, args.target_scales)
    return {
        "tree": tree_to_json(out),
        "audit": {
            "required_input_scales": audit.required_input_scales,
            "slacks": audit.slacks,
            "containments": audit.containments,
        },
    }


def _cmd_tree_pull(inp, args):
    from .trees import tree_pullback

    f = inp.load_map()
    t = inp.load("tree", tree_from_json, f.codomain)
    out = tree_pullback(
        f, t, args.n, args.control, args.target_scales,
        component_scale=args.component_scale,
    )
    return {"tree": tree_to_json(out)}


def _cmd_msp_family(inp, args):
    from .msp import best_mass_family

    sp = inp.load("space", space_from_json)
    mu = inp.load("measure", measure_from_json, sp)
    out = best_mass_family(sp, mu, args.big_r, args.big_s)
    return {"mass_family": mass_family_to_json(out)}


def _cmd_msp_push(inp, args):
    from .msp import half_mass_witness, msp_pushforward, transfer_measure_selection

    f = inp.load_map()
    mu = inp.load("measure", measure_from_json, f.codomain)
    D = args.control
    sel = tuple(min(f.fiber(y)) for y in range(f.codomain.n))
    lam = transfer_measure_selection(f, mu, sel)
    witness = half_mass_witness(f.domain, lam, D(args.n * args.big_r))
    if witness is None:
        raise Refusal("no half-mass witness exists at any diameter bound", proved=True)
    out = msp_pushforward(f, args.n, mu, args.big_r, witness, lam)
    return {
        "witness": mass_family_to_json(witness),
        "mass_family": mass_family_to_json(out),
    }


def _cmd_msp_pull(inp, args):
    from .msp import msp_pullback

    f = inp.load_map()
    mu = inp.load("measure", measure_from_json, f.domain)
    out = msp_pullback(
        f, mu, args.big_r, K=args.big_k, S=args.big_s, R_Y=args.codomain_scale
    )
    return {"mass_family": mass_family_to_json(out)}


def _cmd_msp_check(inp, args):
    from .msp import map_msp_check

    f = inp.load_map()
    members = args.set if args.set is not None else frozenset(range(f.codomain.n))
    rep = map_msp_check(f, members, args.big_r, args.big_s, args.c, args.big_k)
    if rep["achievable"] is False:
        raise CertificateError("mass threshold not achievable", witness=rep)
    return rep


def _cmd_suite(inp, args):
    from .suites import run_suite

    try:
        rep = run_suite(args.name, args.seed, args.count, max_points=args.max_points)
    except KeyError as e:
        raise _UsageError(str(e))
    if rep["failures"]:
        raise CertificateError("suite reported failures", witness=rep)
    return rep


# ---------------------------------------------------------------- parser

# Each flag's argparse spec, written once; flags with the same spec share it.
_FLAGS = {
    **dict.fromkeys(["--space", "--cover", "--domain", "--codomain", "--map", "--action",
                     "--witness", "--tree", "--measure", "--name"], {"required": True}),
    **dict.fromkeys(["--scale", "--r", "--big-r", "--mesh-cap", "--bound", "--big-s", "--big-k",
                     "--c"], {"required": True, "type": _float_arg}),
    **dict.fromkeys(["--c-cap", "--component-scale", "--codomain-scale"],
                    {"type": _float_arg, "default": None}),
    **dict.fromkeys(["--scales", "--gaps", "--target-scales"],
                    {"required": True, "type": _scales_arg}),
    **dict.fromkeys(["--count", "--max-points"], {"type": int, "default": None}),
    "--closed": {"action": "store_true"},
    "--n": {"required": True, "type": int},
    "--control": {"required": True, "type": _control_arg},
    "--budget": {"type": int, "default": 10**6},
    "--mode": {"required": True, "choices": ["sfdc", "casdim"]},
    "--set": {"type": _int_set_arg, "default": None},
    "--seed": {"required": True, "type": int},
}

_MAP = "--domain --codomain --map"  # the flags _Inputs.load_map reads

# command -> (handler, flags in usage order, help).  A group is an entry with no
# handler, listed before its commands.  A trailing "?" marks a flag that the
# command takes as optional, defaulting to None.
_COMMANDS = {
    "space": (_cmd_space, "--space", "validate and describe a space"),
    "cover": (None, "", "cover operations"),
    "cover dim": (_cmd_cover_dim, "--space --cover --scale --closed", None),
    "cover disjointify": (_cmd_cover_disjointify, "--space --cover --scale --n?", None),
    "cover lebesgue": (_cmd_cover_lebesgue, "--space --cover", None),
    "map": (None, "", "coarse map operations"),
    "map control": (_cmd_map_control, f"{_MAP} --n --c-cap", None),
    "map profile": (_cmd_map_profile, f"{_MAP} --r --big-r", None),
    "map push": (_cmd_map_push, f"{_MAP} --cover --r --n --control", None),
    "map factor": (_cmd_map_factor, f"{_MAP} --big-r --n?", None),
    "quotient": (_cmd_quotient, "--space --action", "group quotient with certified control"),
    "apc": (None, "", "scale-indexed family witnesses"),
    "apc witness": (_cmd_apc_witness, "--space --scales --mesh-cap --budget", None),
    "apc normalize": (_cmd_apc_normalize, "--space --witness --gaps", None),
    "apc push": (_cmd_apc_push, f"{_MAP} --witness --n --control --target-scales", None),
    "apc pull": (_cmd_apc_pull, f"{_MAP} --witness --target-scales --bound", None),
    "tree": (None, "", "decomposition tree operations"),
    "tree verify": (_cmd_tree_verify, "--space --tree --mode", None),
    "tree refine": (_cmd_tree_refine, "--space --tree", None),
    "tree convert": (_cmd_tree_convert, "--space --tree", None),
    "tree cover": (_cmd_tree_cover, "--space --tree --scale", None),
    "tree push": (_cmd_tree_push, f"{_MAP} --tree --n --control --target-scales", None),
    "tree pull": (
        _cmd_tree_pull, f"{_MAP} --tree --n --control --target-scales --component-scale", None
    ),
    "msp": (None, "", "measure sparsification"),
    "msp family": (_cmd_msp_family, "--space --measure --big-r --big-s", None),
    "msp push": (_cmd_msp_push, f"{_MAP} --measure --n --control --big-r", None),
    "msp pull": (_cmd_msp_pull, f"{_MAP} --measure --big-r --big-k --big-s --codomain-scale", None),
    "msp check": (_cmd_msp_check, f"{_MAP} --set --big-r --big-s --c --big-k", None),
    "suite": (_cmd_suite, "--name --seed --count --max-points", "run a named property suite"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="coarse-kit",
        description="Certified computations on finite metric spaces: covers, "
        "coarse maps, dimension witnesses, decomposition trees, and measure "
        "sparsification.",
    )
    p.add_argument("--output", help="write the report to this path instead of stdout")
    p.add_argument("--timing", action="store_true", help="print elapsed seconds to stderr")
    groups = {"": p.add_subparsers(dest="command", required=True)}
    for name, (handler, flags, help_text) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        # help=None would still list the command, blank, in its group's help
        parser = groups[group].add_parser(word, **({"help": help_text} if help_text else {}))
        if handler is None:
            groups[name] = parser.add_subparsers(dest="subcommand", required=True)
            continue
        for flag in flags.split():
            f = flag.rstrip("?")
            optional = {"required": False, "default": None} if f != flag else {}
            parser.add_argument(f, **{**_FLAGS[f], **optional})
        parser.set_defaults(handler=handler, flags=flags)
    return p


def _parameters(args) -> dict:
    """The command's declared flags and their values, keyed by argparse dest."""
    dests = (flag.strip("-?").replace("-", "_") for flag in args.flags.split())
    return {k: getattr(args, k) for k in dests}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    except _UsageError as e:  # raised by the argument type parsers
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.monotonic()
    inp = _Inputs(args)
    command = args.command + (
        f" {args.subcommand}" if getattr(args, "subcommand", None) else ""
    )
    report = {"command": command, "parameters": _parameters(args)}
    status = EXIT_OK
    try:
        result = args.handler(inp, args)
        report["status"] = "ok"
        report["result"] = result
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Refusal as e:
        report["status"] = "refusal"
        report["error"] = {
            "type": "Refusal",
            "message": str(e),
            "proved": e.proved,
            "witness": e.witness,
        }
        status = EXIT_VIOLATION
    except (CertificateError, PreconditionError) as e:
        report["status"] = "violation"
        report["error"] = {
            "type": type(e).__name__,
            "message": str(e),
            "witness": getattr(e, "witness", None),
        }
        status = EXIT_VIOLATION
    except (InputError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report["inputs"] = inp.digests
    text = dumps_report(report)
    if args.timing:
        print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.output}: {e.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
