"""Command line front end.

Exit codes: 0 for a positive verdict, 1 for a definite negative, 2 when a
computation hit its cap or ran out of memory and stayed undecided, 64 for
input that does not parse and for usage errors (an unknown option, a
missing required option, a number out of its option's range, a FILE that
does not exist).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .errors import CapExceeded, FactorNotHomogeneous, NotNRF, ParseError, QuivercyError
from .homology import dominant_dimension, global_dimension, is_selfinjective
from .parsing import load_algebra_file

SCHEMA_VERSION = 1

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64

_POSITIVE = click.IntRange(min=1)
_NATURAL = click.IntRange(min=0)


def _load(path, name=None):
    try:
        af = load_algebra_file(path)
        return af.build(name=name or path)
    except ParseError as exc:
        click.echo(f"parse error at {path}:{exc.line}:{exc.col}: {exc.message}",
                   err=True)
        sys.exit(EXIT_PARSE)
    except QuivercyError as exc:
        click.echo(f"error in {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _exit(verdict):
    """Exit with the code of a verdict: True, False, or undecided."""
    sys.exit(EXIT_TRUE if verdict is True else EXIT_FALSE if verdict is False else EXIT_UNDECIDED)


def _emit(doc, pretty, started):
    doc["schema_version"] = SCHEMA_VERSION
    doc["version"] = __version__
    doc["elapsed_s"] = round(time.time() - started, 3)
    if pretty:
        for key, val in doc.items():
            click.echo(f"{key}: {val}")
    else:
        click.echo(json.dumps(doc, indent=2, default=str, sort_keys=True))


class _Main(click.Group):
    """Usage errors exit with EXIT_PARSE: click's own code, 2, would read
    as EXIT_UNDECIDED.  The group's own arguments are parsed in
    make_context, a subcommand's in the group's invoke.  A computation
    that hits its cap or runs out of memory in any subcommand exits with
    EXIT_UNDECIDED: exit 1 would read as a definite negative."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_PARSE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_PARSE
            raise
        except CapExceeded as exc:
            click.echo(f"cap exceeded: {exc}", err=True)
            sys.exit(EXIT_UNDECIDED)
        except MemoryError as exc:
            click.echo(f"out of memory: {exc}", err=True)
            sys.exit(EXIT_UNDECIDED)


@click.group(cls=_Main)
def main():
    """Quiver algebra homological calculator."""


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--n", type=_POSITIVE, required=True, help="homological degree")
@click.option("--cap", type=_NATURAL, default=None, help="iteration cap")
@click.option("--pretty", is_flag=True)
def analyze(file, n, cap, pretty):
    """Decide n-representation-finiteness of the algebra in FILE."""
    from .ar import decide_nrf

    started = time.time()
    alg = _load(file)
    report = decide_nrf(alg, n, cap=cap)
    doc = {"command": "analyze", "input": file, "cap": cap}
    doc.update(report.to_dict())
    _emit(doc, pretty, started)
    _exit(report.is_nrf)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--ell-max", type=_POSITIVE, default=24)
@click.option("--m-max", type=_NATURAL, default=24)
@click.option("--ell", type=_POSITIVE, default=None, help="check this ell only")
@click.option("--m", type=_NATURAL, default=None, help="check this m only")
@click.option("--untwisted", is_flag=True, help="bimodule-level check")
@click.option("--dim-ceiling", type=_NATURAL, default=12,
              help="largest algebra dimension for untwisted checks")
@click.option("--cap", type=_NATURAL, default=None)
@click.option("--pretty", is_flag=True)
def cy(file, ell_max, m_max, ell, m, untwisted, dim_ceiling, cap, pretty):
    """Search or check fractional Calabi-Yau certificates for FILE."""
    from .cy import (check_twisted_cy, check_untwisted_cy, cy_dimension, find_twisted_cy,
                     k0_candidates)

    if (ell is None) != (m is None):
        raise click.UsageError("--ell and --m check one certificate and go together")
    started = time.time()
    alg = _load(file)
    doc = {"command": "cy", "input": file, "untwisted": untwisted}
    if untwisted and alg.dim > dim_ceiling:
        click.echo(f"algebra dimension {alg.dim} exceeds the untwisted "
                   f"ceiling {dim_ceiling}", err=True)
        sys.exit(EXIT_UNDECIDED)
    if ell is not None and m is not None:
        check = check_untwisted_cy if untwisted else check_twisted_cy
        ok = check(alg, ell, m, cap=cap)
        doc.update({"ell": ell, "m": m, "passed": ok})
        _emit(doc, pretty, started)
        _exit(ok)
    cert = find_twisted_cy(alg, ell_max=ell_max, m_max=m_max, cap=cap)
    if cert is None:
        doc.update({"found": False, "ell_max": ell_max, "m_max": m_max,
                    "k0_candidates": [e for e, _ in k0_candidates(alg, ell_max)]})
        _emit(doc, pretty, started)
        sys.exit(EXIT_FALSE)
    if untwisted:
        ok = check_untwisted_cy(alg, cert.ell, cert.m, cap=cap)
        cert.twisted = not ok
    doc.update({"found": True, "dimension": str(cy_dimension(cert))})
    doc.update(cert.to_dict())
    _emit(doc, pretty, started)
    sys.exit(EXIT_TRUE)


@main.command()
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--s", type=_POSITIVE, required=True)
@click.option("--enumerate-cuts", "do_cuts", is_flag=True)
@click.option("--omega-stable-only", is_flag=True)
@click.option("--verify", is_flag=True, help="run the homogeneity theorem check")
@click.option("--cap", type=_NATURAL, default=None)
@click.option("--pretty", is_flag=True)
def typea(n, s, do_cuts, omega_stable_only, verify, cap, pretty):
    """The cyclic type-A quiver family and its cuts."""
    from .constructions import (
        TypeAQuiver,
        enumerate_cuts,
        gamma_algebra,
        omega_on_cuts,
        verify_thm_homogeneous_cuts,
    )

    started = time.time()
    q = TypeAQuiver(n, s)
    doc = {
        "command": "typea", "n": n, "s": s,
        "vertices": len(q.vertices), "arrows": len(q.quiver.arrows),
        "cycles": len(q.cycles()),
    }
    if do_cuts or omega_stable_only:
        cuts = enumerate_cuts(q)
        stable = [c for c in cuts if omega_on_cuts(q, c) == c]
        doc["cut_count"] = len(cuts)
        doc["omega_stable_count"] = len(stable)
        shown = stable if omega_stable_only else cuts
        doc["cuts"] = [sorted(c) for c in shown]
    if verify:
        rep = verify_thm_homogeneous_cuts(n, s, cap=cap)
        doc["verified"] = rep["verified"] if isinstance(rep["verified"], bool) else "undecided"
        doc["cut_count"] = rep["cut_count"]
        doc["omega_stable_count"] = rep["omega_stable_count"]
        doc["omega_stable_iso_classes"] = rep["omega_stable_iso_classes"]
        doc["homogeneous_count"] = rep["homogeneous_count"]
        doc["ell"] = rep["ell"]
    else:
        doc["gamma_dim"] = gamma_algebra(q).dim
    _emit(doc, pretty, started)
    _exit(doc.get("verified", True))


@main.command()
@click.argument("files", nargs=-1, type=click.Path(exists=True), required=True)
@click.option("--n", "ns", type=_POSITIVE, multiple=True, required=True,
              help="one value per factor")
@click.option("--ell", type=_POSITIVE, required=True)
@click.option("--cap", type=_NATURAL, default=None)
@click.option("--pretty", is_flag=True)
def tensor(files, ns, ell, cap, pretty):
    """Tensor-product construction from factor algebras in FILES."""
    from .ar import tensor_nrf
    from .cy import combine_cy, find_twisted_cy

    started = time.time()
    if len(ns) != len(files):
        click.echo("need exactly one --n per file", err=True)
        sys.exit(EXIT_PARSE)
    factors = [(_load(f), n) for f, n in zip(files, ns)]
    doc = {"command": "tensor", "inputs": list(files), "n": list(ns), "ell": ell}
    try:
        prod, rep = tensor_nrf(factors, ell, cap=cap)
    except FactorNotHomogeneous as exc:
        click.echo(f"factor not homogeneous: {exc}", err=True)
        sys.exit(EXIT_FALSE)
    doc.update(rep.to_dict())
    try:
        certs = [find_twisted_cy(a, cap=cap) for a, _ in factors]
    except CapExceeded:
        certs = [None]  # a factor's search hit its cap: no combined certificate
    if all(certs):
        m, el = combine_cy(certs)
        doc["cy_combined"] = {"ell": el, "m": m, "dimension": str(Fraction(m, el))}
    _emit(doc, pretty, started)
    _exit(rep.is_nrf)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--cap", type=_NATURAL, default=None)
@click.option("--pretty", is_flag=True)
def preproj(file, n, cap, pretty):
    """Preprojective algebra of the algebra in FILE."""
    from .ar import decide_nrf, nakayama_permutation, preprojective

    started = time.time()
    alg = _load(file)
    doc = {"command": "preproj", "input": file, "n": n}
    try:
        rep = decide_nrf(alg, n, cap=cap)
        pi = preprojective(alg, n, report=rep)
    except NotNRF as exc:
        click.echo(f"not representation-finite: {exc}", err=True)
        sys.exit(EXIT_FALSE)
    perm = nakayama_permutation(pi)
    doc.update({
        "dim": pi.dim,
        "selfinjective": is_selfinjective(pi),
        "degree_dims": pi.degree_dims,
        "nakayama_permutation": {str(k): str(v) for k, v in perm.items()},
        "matches_sigma": perm == rep.sigma,
    })
    _emit(doc, pretty, started)
    _exit(doc["matches_sigma"])


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--cap", type=_NATURAL, default=None)
@click.option("--pretty", is_flag=True)
def auslander(file, n, cap, pretty):
    """Higher Auslander algebra of the cluster tilting module of FILE."""
    from .ar import auslander_algebra, decide_nrf, presentation_size

    started = time.time()
    alg = _load(file)
    doc = {"command": "auslander", "input": file, "n": n}
    rep = decide_nrf(alg, n, cap=cap)
    if rep.is_nrf is not True:
        verdict = "not representation-finite" if rep.is_nrf is False else "undecided"
        click.echo(f"{verdict}: {rep.reason}", err=True)
        _exit(rep.is_nrf)
    gamma = auslander_algebra(alg, rep.ct_summands)
    gd = global_dimension(gamma)
    dd = dominant_dimension(gamma)
    arrows, relations = presentation_size(gamma)
    doc.update({
        "dim": gamma.dim,
        "summands": len(rep.ct_summands),
        "gl_dim": gd,
        "dom_dim": dd,
        "chain": f"gl.dim {gd} <= {n + 1} <= dom.dim {dd}",
        "quiver_arrows": arrows,
        "relation_count": relations,
    })
    _emit(doc, pretty, started)
    _exit(gd <= n + 1 <= dd)


if __name__ == "__main__":
    main()
