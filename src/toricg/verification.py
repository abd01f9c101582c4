"""The registry of the verification suites: ``SUITES`` maps each suite's
name to its ``suite_*`` function (see :mod:`toricg.suites` for the checks).

Loading this module loads all six suite modules and every library module
they check, so a caller that times the suites after the import times no
module compile.  ``toricg verify`` goes through :func:`toricg.suites.run`
instead, which loads the one suite it runs.
"""

from __future__ import annotations

from .suites import _run
from .suites.bijections import CHECKS as _BIJECTIONS
from .suites.compat import CHECKS as _COMPAT
from .suites.conjectures import CHECKS as _CONJECTURES
from .suites.gamma import CHECKS as _GAMMA
from .suites.nestohedra import CHECKS as _NESTOHEDRA
from .suites.series import CHECKS as _SERIES

# the brute-force oracles of the gamma and series suites, reachable here too
from .perms import eulerian_hvec
from .words import peak_poly_oracles


def suite_bijections(n_max: int, unsafe: bool = False) -> dict:
    return _run("bijections", _BIJECTIONS, n_max, unsafe)


def suite_compat(n_max: int, unsafe: bool = False) -> dict:
    return _run("compat", _COMPAT, n_max, unsafe)


def suite_series(n_max: int, unsafe: bool = False) -> dict:
    return _run("series", _SERIES, n_max, unsafe)


def suite_gamma(n_max: int, unsafe: bool = False) -> dict:
    return _run("gamma", _GAMMA, n_max, unsafe)


def suite_nestohedra(n_max: int, unsafe: bool = False) -> dict:
    return _run("nestohedra", _NESTOHEDRA, n_max, unsafe)


def suite_conjectures(n_max: int, unsafe: bool = False) -> dict:
    return _run("conjectures", _CONJECTURES, n_max, unsafe)


SUITES = {
    "bijections": suite_bijections,
    "compat": suite_compat,
    "series": suite_series,
    "gamma": suite_gamma,
    "nestohedra": suite_nestohedra,
    "conjectures": suite_conjectures,
}
