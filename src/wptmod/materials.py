"""The metal material database: bulk conductivity and relative permeability.

`load_materials` reads and parses the bundled database or an alternate file
on every call, through wptmod.schema, which reads the bundled file once per
process.  This module imports no numpy, so the `materials` verb reads the
database without loading the physics stack; wptmod.eddy takes a
MetalMaterial as its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScenarioError
from .schema import CONDUCTIVITY_S_PER_M, MU_R, decode_json, finite, key, read, read_text, string


@dataclass(frozen=True)
class MetalMaterial:
    """Bulk metal described by conductivity and relative permeability.

    rel_permeability lies in rel_permeability_range, if set, ends included;
    that rule's errors name the keys as a database entry spells them.
    """

    name: str
    conductivity: float  # [S/m]
    rel_permeability: float = 1.0
    rel_permeability_range: tuple[float, float] | None = None

    def __post_init__(self):
        mu_r, span = self.rel_permeability, self.rel_permeability_range
        if not self.conductivity > 0.0:
            raise ValueError("conductivity must be > 0")
        if not mu_r >= 1.0:
            raise ValueError("rel_permeability must be >= 1")
        if span and not span[0] <= span[1]:
            raise ValueError(f"mu_r_range must be [low, high] with low <= high, got {[*span]}")
        if span and not span[0] <= mu_r <= span[1]:
            raise ValueError(f"mu_r must lie in {self.name}'s mu_r_range {[*span]}, got {mu_r!r}")


@dataclass(frozen=True)
class _Entry:
    """One material database entry, keyed as the JSON file spells it."""

    name: str = key(string)
    conductivity_S_per_m: float = key(finite, **CONDUCTIVITY_S_PER_M)
    mu_r: float = key(finite, 1.0, **MU_R)
    mu_r_range: tuple[float, float] | None = key((finite, finite), None, **MU_R)
    aliases: tuple[str, ...] = key([string], ())


def load_materials(path=None) -> dict[str, MetalMaterial]:
    """Load the material database, keyed by lowercase name and aliases.

    With no path, the bundled database seeded from standard metal
    properties (Cu, Al, Fe) is used.  A file that cannot be read, is not
    JSON or holds a malformed entry (one MetalMaterial refuses, too) raises
    ScenarioError naming the path and the entry's key, as does a name or
    alias that, lowercased, an earlier entry already binds.
    """
    source = f"material database {path!r}"
    where = f"{source}: entry"
    entries = decode_json(read_text(path, "material database", "materials.json"), source)
    db: dict[str, MetalMaterial] = {}
    owner: dict[str, int] = {}  # the index of the entry binding each key of db
    for index, entry in enumerate(read([_Entry], entries, where)):
        fields = entry.name, entry.conductivity_S_per_m, entry.mu_r, entry.mu_r_range
        try:
            mat = MetalMaterial(*fields)
        except ValueError as exc:
            raise ScenarioError(f"{where}[{index}].{exc}") from exc
        names = {"name": entry.name}
        names.update((f"aliases[{j}]", alias) for j, alias in enumerate(entry.aliases))
        for field, name in names.items():
            first = owner.setdefault(name.lower(), index)
            if first != index:
                raise ScenarioError(
                    f"{where}[{index}].{field} {name!r} is already bound to entry[{first}] "
                    f"{db[name.lower()].name!r}; names and aliases must be unique across "
                    "entries, case-insensitive"
                )
            db[name.lower()] = mat
    return db
