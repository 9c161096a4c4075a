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
from .covers import dim_at_scale, lebesgue_number, make_disjoint, mesh
from .coarse_maps import (
    control_upper,
    factorize,
    group_quotient,
    n_to_1_control,
    n_to_1_profile,
    pushforward_cover,
)
from .dimension import apc_normalize, apc_pullback, apc_pushforward, apc_witness
from .errors import CertificateError, InputError, MetricError, PreconditionError, Refusal
from .msp import (
    best_mass_family,
    half_mass_witness,
    map_msp_check,
    msp_pullback,
    msp_pushforward,
    transfer_measure_selection,
)
from .serialization import (
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
    action_from_json,
    _plain,
)
from .suites import run_suite
from .trees import (
    casdim_to_sfdc,
    partition_refine,
    tree_pullback,
    tree_pushforward,
    tree_to_cover,
    verify_tree,
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


def _control_arg(value: str):
    """A control given either inline as JSON or as a path to a JSON file."""
    try:
        obj = json.loads(value)
    except json.JSONDecodeError:
        obj, _ = _load_json(value)
    try:
        return as_control(obj)
    except KeyError as e:
        raise _UsageError(f"control {value}: missing field {e}")
    except (InputError, TypeError, ValueError) as e:
        raise _UsageError(f"control {value}: {e}")


def _scales_arg(value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",") if v != ""]
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
        try:
            return decode(obj, *ctx)
        except KeyError as e:
            raise _UsageError(f"{path}: missing field {e}")
        except (InputError, MetricError, TypeError, ValueError) as e:
            raise _UsageError(f"{path}: {e}")

    def load_map(self):
        """The map given by --map between the spaces of --domain and --codomain."""
        dom, cod = self.load("domain", space_from_json), self.load("codomain", space_from_json)
        return self.load("map", map_from_json, dom, cod)


# ---------------------------------------------------------------- handlers


def _cmd_space(inp, args):
    sp = inp.load("space", space_from_json)
    return {"n": sp.n, "diam": sp.diam(), "labels": [str(l) for l in sp.labels]}


def _cmd_cover_dim(inp, args):
    sp = inp.load("space", space_from_json)
    cov = inp.load("cover", family_from_json, sp)
    return {
        "dim": dim_at_scale(cov, args.scale, closed=args.closed),
        "mesh": mesh(cov),
        "covers_space": cov.covers_space(),
    }


def _cmd_cover_disjointify(inp, args):
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
    sp = inp.load("space", space_from_json)
    cov = inp.load("cover", family_from_json, sp)
    return {"lebesgue_number": lebesgue_number(cov), "mesh": mesh(cov)}


def _cmd_map_control(inp, args):
    f = inp.load_map()
    ctl = n_to_1_control(f, args.n, c_cap=args.c_cap)
    return {
        "n": ctl.n,
        "control": ctl.step.to_json(),
        "relaxed_at": list(ctl.relaxed_at),
        "upper_control": control_upper(f).to_json(),
    }


def _cmd_map_profile(inp, args):
    f = inp.load_map()
    prof = n_to_1_profile(f, args.r, args.big_r)
    return {
        "max_components": prof.max_components,
        "max_component_diam": prof.max_component_diam,
        "witness_block": sorted(prof.witness) if prof.witness is not None else None,
        "exact": prof.exact,
    }


def _cmd_map_push(inp, args):
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
    f = inp.load_map()
    fac = factorize(f, args.big_r, args.n)
    return {
        "middle": space_to_json(fac.middle),
        "p_assign": list(fac.p.assign),
        "q_assign": list(fac.q.assign),
        "classes": [sorted(c) for c in fac.classes],
        "class_diam_bound": fac.class_diam_bound,
        "selection": list(fac.selection),
    }


def _cmd_quotient(inp, args):
    sp = inp.load("space", space_from_json)
    act = inp.load("action", action_from_json, sp)
    gq = group_quotient(act)
    return {
        "quotient": space_to_json(gq.quotient),
        "projection": list(gq.projection.assign),
        "orbits": [sorted(o) for o in gq.orbits],
        "group_order": gq.n,
        "control": gq.control.to_json(),
        "symmetrized": space_to_json(gq.symmetrized),
    }


def _cmd_apc_witness(inp, args):
    sp = inp.load("space", space_from_json)
    w = apc_witness(sp, args.scales, args.mesh_cap, budget=args.budget)
    return {"witness": witness_to_json(w)}


def _cmd_apc_normalize(inp, args):
    sp = inp.load("space", space_from_json)
    dsw = inp.load("witness", dim_sequence_from_json, sp)
    out = apc_normalize(dsw, args.gaps)
    return {"witness": witness_to_json(out)}


def _cmd_apc_push(inp, args):
    f = inp.load_map()
    w = inp.load("witness", witness_from_json, f.domain)
    out = apc_pushforward(f, args.n, args.control, w, args.target_scales)
    return {"witness": witness_to_json(out)}


def _cmd_apc_pull(inp, args):
    f = inp.load_map()
    w = inp.load("witness", witness_from_json, f.codomain)
    out = apc_pullback(f, w, args.target_scales, args.bound)
    return {"witness": witness_to_json(out)}


def _cmd_tree_verify(inp, args):
    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    rep = verify_tree(t, args.mode)
    result = {
        "ok": rep.ok,
        "violations": _plain(rep.violations),
        "bounded_levels": list(rep.bounded_levels),
    }
    if not rep.ok:
        raise CertificateError("tree verification failed", witness=result)
    return result


def _cmd_tree_refine(inp, args):
    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    return {"tree": tree_to_json(partition_refine(t))}


def _cmd_tree_convert(inp, args):
    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    return {"tree": tree_to_json(casdim_to_sfdc(t))}


def _cmd_tree_cover(inp, args):
    sp = inp.load("space", space_from_json)
    t = inp.load("tree", tree_from_json, sp)
    fam = tree_to_cover(t, args.scale)
    return {"family": family_to_json(fam), "dim": dim_at_scale(fam, args.scale)}


def _cmd_tree_push(inp, args):
    f = inp.load_map()
    t = inp.load("tree", tree_from_json, f.domain)
    out, audit = tree_pushforward(f, t, args.n, args.control, args.target_scales)
    return {
        "tree": tree_to_json(out),
        "audit": {
            "required_input_scales": list(audit.required_input_scales),
            "slacks": list(audit.slacks),
            "containments": _plain(audit.containments),
        },
    }


def _cmd_tree_pull(inp, args):
    f = inp.load_map()
    t = inp.load("tree", tree_from_json, f.codomain)
    out = tree_pullback(
        f, t, args.n, args.control, args.target_scales,
        component_scale=args.component_scale,
    )
    return {"tree": tree_to_json(out)}


def _cmd_msp_family(inp, args):
    sp = inp.load("space", space_from_json)
    mu = inp.load("measure", measure_from_json, sp)
    out = best_mass_family(sp, mu, args.big_r, args.big_s)
    return {"mass_family": mass_family_to_json(out)}


def _cmd_msp_push(inp, args):
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
    f = inp.load_map()
    mu = inp.load("measure", measure_from_json, f.domain)
    out = msp_pullback(
        f, mu, args.big_r, K=args.big_k, S=args.big_s, R_Y=args.codomain_scale
    )
    return {"mass_family": mass_family_to_json(out)}


def _cmd_msp_check(inp, args):
    f = inp.load_map()
    members = args.set if args.set is not None else frozenset(range(f.codomain.n))
    rep = map_msp_check(f, members, args.big_r, args.big_s, args.c, args.big_k)
    if rep["achievable"] is False:
        raise CertificateError("mass threshold not achievable", witness=_plain(rep))
    return _plain(rep)


def _cmd_suite(inp, args):
    try:
        rep = run_suite(args.name, args.seed, args.count, max_points=args.max_points)
    except KeyError as e:
        raise _UsageError(str(e))
    if rep["failures"]:
        raise CertificateError("suite reported failures", witness=_plain(rep))
    return rep


# ---------------------------------------------------------------- parser


def _build_parser():
    p = argparse.ArgumentParser(
        prog="coarse-kit",
        description="Certified computations on finite metric spaces: covers, "
        "coarse maps, dimension witnesses, decomposition trees, and measure "
        "sparsification.",
    )
    p.add_argument("--output", help="write the report to this path instead of stdout")
    p.add_argument("--timing", action="store_true", help="print elapsed seconds to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def add(parser, *specs):
        for flag, kw in specs:
            parser.add_argument(flag, **kw)

    sp_space = sub.add_parser("space", help="validate and describe a space")
    sp_space.add_argument("--space", required=True)
    sp_space.set_defaults(handler=_cmd_space)

    cover = sub.add_parser("cover", help="cover operations").add_subparsers(
        dest="subcommand", required=True
    )
    c_dim = cover.add_parser("dim")
    add(c_dim, ("--space", {"required": True}), ("--cover", {"required": True}),
        ("--scale", {"required": True, "type": float}),
        ("--closed", {"action": "store_true"}))
    c_dim.set_defaults(handler=_cmd_cover_dim)
    c_dis = cover.add_parser("disjointify")
    add(c_dis, ("--space", {"required": True}), ("--cover", {"required": True}),
        ("--scale", {"required": True, "type": float}),
        ("--n", {"type": int, "default": None}))
    c_dis.set_defaults(handler=_cmd_cover_disjointify)
    c_leb = cover.add_parser("lebesgue")
    add(c_leb, ("--space", {"required": True}), ("--cover", {"required": True}))
    c_leb.set_defaults(handler=_cmd_cover_lebesgue)

    mp = sub.add_parser("map", help="coarse map operations").add_subparsers(
        dest="subcommand", required=True
    )
    m_ctl = mp.add_parser("control")
    add(m_ctl, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--n", {"required": True, "type": int}),
        ("--c-cap", {"type": float, "default": None}))
    m_ctl.set_defaults(handler=_cmd_map_control)
    m_prof = mp.add_parser("profile")
    add(m_prof, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--r", {"required": True, "type": float}),
        ("--big-r", {"required": True, "type": float}))
    m_prof.set_defaults(handler=_cmd_map_profile)
    m_push = mp.add_parser("push")
    add(m_push, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--cover", {"required": True}),
        ("--r", {"required": True, "type": float}),
        ("--n", {"required": True, "type": int}),
        ("--control", {"required": True, "type": _control_arg}))
    m_push.set_defaults(handler=_cmd_map_push)
    m_fac = mp.add_parser("factor")
    add(m_fac, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--big-r", {"required": True, "type": float}),
        ("--n", {"type": int, "default": None}))
    m_fac.set_defaults(handler=_cmd_map_factor)

    q = sub.add_parser("quotient", help="group quotient with certified control")
    add(q, ("--space", {"required": True}), ("--action", {"required": True}))
    q.set_defaults(handler=_cmd_quotient)

    apc = sub.add_parser("apc", help="scale-indexed family witnesses").add_subparsers(
        dest="subcommand", required=True
    )
    a_wit = apc.add_parser("witness")
    add(a_wit, ("--space", {"required": True}),
        ("--scales", {"required": True, "type": _scales_arg}),
        ("--mesh-cap", {"required": True, "type": float}),
        ("--budget", {"type": int, "default": 10**6}))
    a_wit.set_defaults(handler=_cmd_apc_witness)
    a_norm = apc.add_parser("normalize")
    add(a_norm, ("--space", {"required": True}), ("--witness", {"required": True}),
        ("--gaps", {"required": True, "type": _scales_arg}))
    a_norm.set_defaults(handler=_cmd_apc_normalize)
    a_push = apc.add_parser("push")
    add(a_push, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--witness", {"required": True}),
        ("--n", {"required": True, "type": int}),
        ("--control", {"required": True, "type": _control_arg}),
        ("--target-scales", {"required": True, "type": _scales_arg}))
    a_push.set_defaults(handler=_cmd_apc_push)
    a_pull = apc.add_parser("pull")
    add(a_pull, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--witness", {"required": True}),
        ("--target-scales", {"required": True, "type": _scales_arg}),
        ("--bound", {"required": True, "type": float}))
    a_pull.set_defaults(handler=_cmd_apc_pull)

    tr = sub.add_parser("tree", help="decomposition tree operations").add_subparsers(
        dest="subcommand", required=True
    )
    t_ver = tr.add_parser("verify")
    add(t_ver, ("--space", {"required": True}), ("--tree", {"required": True}),
        ("--mode", {"required": True, "choices": ["sfdc", "casdim"]}))
    t_ver.set_defaults(handler=_cmd_tree_verify)
    t_ref = tr.add_parser("refine")
    add(t_ref, ("--space", {"required": True}), ("--tree", {"required": True}))
    t_ref.set_defaults(handler=_cmd_tree_refine)
    t_conv = tr.add_parser("convert")
    add(t_conv, ("--space", {"required": True}), ("--tree", {"required": True}))
    t_conv.set_defaults(handler=_cmd_tree_convert)
    t_cov = tr.add_parser("cover")
    add(t_cov, ("--space", {"required": True}), ("--tree", {"required": True}),
        ("--scale", {"required": True, "type": float}))
    t_cov.set_defaults(handler=_cmd_tree_cover)
    t_push = tr.add_parser("push")
    add(t_push, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--tree", {"required": True}),
        ("--n", {"required": True, "type": int}),
        ("--control", {"required": True, "type": _control_arg}),
        ("--target-scales", {"required": True, "type": _scales_arg}))
    t_push.set_defaults(handler=_cmd_tree_push)
    t_pull = tr.add_parser("pull")
    add(t_pull, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--tree", {"required": True}),
        ("--n", {"required": True, "type": int}),
        ("--control", {"required": True, "type": _control_arg}),
        ("--target-scales", {"required": True, "type": _scales_arg}),
        ("--component-scale", {"type": float, "default": None}))
    t_pull.set_defaults(handler=_cmd_tree_pull)

    ms = sub.add_parser("msp", help="measure sparsification").add_subparsers(
        dest="subcommand", required=True
    )
    s_fam = ms.add_parser("family")
    add(s_fam, ("--space", {"required": True}), ("--measure", {"required": True}),
        ("--big-r", {"required": True, "type": float}),
        ("--big-s", {"required": True, "type": float}))
    s_fam.set_defaults(handler=_cmd_msp_family)
    s_push = ms.add_parser("push")
    add(s_push, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--measure", {"required": True}),
        ("--n", {"required": True, "type": int}),
        ("--control", {"required": True, "type": _control_arg}),
        ("--big-r", {"required": True, "type": float}))
    s_push.set_defaults(handler=_cmd_msp_push)
    s_pull = ms.add_parser("pull")
    add(s_pull, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}), ("--measure", {"required": True}),
        ("--big-r", {"required": True, "type": float}),
        ("--big-k", {"required": True, "type": float}),
        ("--big-s", {"required": True, "type": float}),
        ("--codomain-scale", {"type": float, "default": None}))
    s_pull.set_defaults(handler=_cmd_msp_pull)
    s_chk = ms.add_parser("check")
    add(s_chk, ("--domain", {"required": True}), ("--codomain", {"required": True}),
        ("--map", {"required": True}),
        ("--set", {"type": _int_set_arg, "default": None}),
        ("--big-r", {"required": True, "type": float}),
        ("--big-s", {"required": True, "type": float}),
        ("--c", {"required": True, "type": float}),
        ("--big-k", {"required": True, "type": float}))
    s_chk.set_defaults(handler=_cmd_msp_check)

    st = sub.add_parser("suite", help="run a named property suite")
    add(st, ("--name", {"required": True}), ("--seed", {"required": True, "type": int}),
        ("--count", {"type": int, "default": None}),
        ("--max-points", {"type": int, "default": None}))
    st.set_defaults(handler=_cmd_suite)
    return p


def _parameters(args) -> dict:
    skip = {"handler", "command", "subcommand", "output", "timing"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        if hasattr(v, "to_json"):
            v = v.to_json()
        elif isinstance(v, frozenset):
            v = sorted(v)
        out[k] = v
    return out


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
            "witness": _plain(e.witness),
        }
        status = EXIT_VIOLATION
    except (CertificateError, PreconditionError) as e:
        report["status"] = "violation"
        report["error"] = {
            "type": type(e).__name__,
            "message": str(e),
            "witness": _plain(getattr(e, "witness", None)),
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
