"""The application pool (paper §IV) plus a synthetic halo exchange.

``APPS`` maps the paper's application names to their skeleton classes;
:func:`get_app` instantiates one with overrides.
"""

from __future__ import annotations

from .alya import Alya
from .base import Application, grid_2d
from .nas_bt import NasBT
from .nas_cg import NasCG
from .pop import POP
from .specfem3d import SPECFEM3D
from .sweep3d import Sweep3D
from .synthetic import HaloExchange2D

__all__ = [
    "APPS", "Alya", "Application", "HaloExchange2D", "NasBT", "NasCG",
    "POP", "SPECFEM3D", "Sweep3D", "get_app", "grid_2d",
]

#: The paper's pool, keyed as in Table I.
APPS: dict[str, type[Application]] = {
    "sweep3d": Sweep3D,
    "pop": POP,
    "alya": Alya,
    "specfem3d": SPECFEM3D,
    "bt": NasBT,
    "cg": NasCG,
}


def get_app(name: str, **params) -> Application:
    """Instantiate a pool application by its Table I name."""
    key = name.lower()
    if key not in APPS:
        raise KeyError(f"unknown application {name!r}; known: {sorted(APPS)}")
    return APPS[key](**params)
