"""The three text grammars of the command line, one parser each:

* a decorated graph, ``V ...; E ...; L ...; decor ...`` (``parse_gen``,
  read by ``taut canon`` and inside a component);
* a component, ``T1 <graph> | T2 <graph> | nu: v>w ... | sigma: v:s ...``
  (``parse_component``, the inverse of ``ctp.Component.to_string``, read
  by ``ctp dim``);
* a half-edge pairing, ``g=G L=m R=n b:i-j r:i-j ...`` (``parse_pairing``,
  read by ``ctp check-pairing``).

Each raises ValueError with a one-line message that names the bad token,
the repeated section, key or field, or the rule an input breaks.  Only the
commands that read text import this module.
"""

import itertools

from .ctp import (
    Component,
    HalfEdgePairing,
    _edge_sets,
    _elliptic_pairs_ok,
    _sign_choices,
    canonical_component,
)
from .tautring import Gen, check_stability, make_gen


# --------------------------------------------------------------------------
# decorated graphs


def _int_in(token: str, text: str) -> int:
    """``int(text)`` for a part of ``token``; a ValueError names the token."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad generator token {token!r}") from None


def parse_gen(text: str) -> Gen:
    """Parse the ``V ...; E ...; L ...; decor ...`` format (``E`` and ``L``
    add up); a bad token (an empty leg label among them), a repeated section
    or psi target raises ValueError."""
    genera: list[int] = []
    edges: list[list[int]] = []
    legs: dict[str, list] = {}
    decor: list[str] = []
    seen: set[str] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        tag, _, rest = chunk.partition(" ")
        items = rest.split()
        if tag in ("V", "decor") and tag in seen:
            raise ValueError(f"repeated section {tag!r}")
        seen.add(tag)
        if tag == "V":
            genera = [_int_in(t, t) for t in items]
        elif tag == "E":
            for t in items:
                a, _, b = t.partition("-")
                edges.append([_int_in(t, a), _int_in(t, b), 0, 0])
        elif tag == "L":
            for t in items:
                lab, _, v = t.partition("@")
                if not lab:
                    raise ValueError(f"bad generator token {t!r}")
                if lab in legs:
                    raise ValueError(f"duplicate leg label {lab!r}")
                legs[lab] = [lab, _int_in(t, v), 0]
        elif tag == "decor":
            decor = items
        else:
            raise ValueError(f"unknown section {tag!r}")
    if not genera:
        raise ValueError("generator needs a V section with a vertex")
    kappa: dict[int, list] = {}
    lam_: dict[int, list] = {}
    for item in decor:
        where, _, what = item.partition(":")
        sym, _, exp = what.partition("^")
        e = _int_in(item, exp) if exp else 1
        if where[:1] in ("e", "l"):  # a psi target: once, to a power >= 0
            if where in seen or sym != "psi" or e < 0:
                raise ValueError(f"repeated decoration target {where!r}" if where in seen
                                 else f"bad generator token {item!r}")
            seen.add(where)
        if where.startswith("v"):
            v = _int_in(item, where[1:])
            if not 0 <= v < len(genera):
                raise ValueError(f"bad generator token {item!r}")
            if sym.startswith("kappa"):
                kappa.setdefault(v, []).append((_int_in(item, sym[5:]), e))
            elif sym.startswith("lambda"):
                lam_.setdefault(v, []).append((_int_in(item, sym[6:]), e))
            else:
                raise ValueError(f"unknown vertex symbol {sym!r}")
        elif where.startswith("e"):
            idx = _int_in(item, where[1:-1])
            if not 0 <= idx < len(edges) or where[-1] not in "ab":
                raise ValueError(f"bad generator token {item!r}")
            edges[idx][2 if where[-1] == "a" else 3] = e
        elif where.startswith("l"):
            if where[1:] not in legs:
                raise ValueError(f"bad generator token {item!r}")
            legs[where[1:]][2] = e
        else:
            raise ValueError(f"unknown decor target {where!r}")
    return make_gen(
        genera, [tuple(e) for e in edges], [tuple(l) for l in legs.values()], kappa, lam_
    )


# --------------------------------------------------------------------------
# components


def parse_component(text: str) -> Component:
    """Parse ``Component.to_string`` output to the canonical component;
    what is not a component raises ValueError."""
    data: dict[str, str] = {}
    for field in text.split("|"):
        tag, _, rest = field.strip().partition(" ")
        if (tag := tag.rstrip(":")) in data:
            raise ValueError(f"repeated component field {tag!r}")
        data[tag] = rest.strip()
    if missing := [field for field in ("T1", "T2", "nu") if field not in data]:
        raise ValueError(f"component missing field(s) {', '.join(missing)}")
    if unknown := sorted(set(data) - {"T1", "T2", "nu", "sigma"}):
        raise ValueError(f"unknown component field(s) {', '.join(map(repr, unknown))}")
    t1, t2 = parse_gen(data["T1"]), parse_gen(data["T2"])
    for t in (t1, t2):
        check_stability(t, "ct")
        if min(t.genera) < 1 or t != make_gen(t.genera, [e[:2] for e in t.edges]):
            raise ValueError("component trees have positive genera, no legs, no decorations")
    pairs = sorted(_int_pair(item, ">", "nu") for item in data["nu"].split())
    nu = tuple(w for _, w in pairs)
    if ([v for v, _ in pairs] != list(range(len(t1.genera)))
            or sorted(zip(t1.genera, nu)) != sorted(zip(t2.genera, itertools.count()))):
        raise ValueError("nu must be a genus-preserving bijection of the vertices")
    items = data.get("sigma", "").split()
    signs = dict(_int_pair(item, ":", "sigma", str) for item in items)
    sigma = tuple(signs.get(v) for v in range(len(nu)))
    if (sorted(items) != sorted(f"{v}:{s}" for v, s in enumerate(sigma) if s)
            or sigma not in _sign_choices(t1)):
        raise ValueError("sigma must be +- at genus 2, + or - above, and absent below")
    if not _elliptic_pairs_ok(_edge_sets(t1)[0], _edge_sets(t2)[1], nu):
        raise ValueError("neighboring genus-1 vertices of T1 map to neighbors of T2")
    return canonical_component(t1, t2, nu, sigma)


def _int_pair(item: str, sep: str, field: str, second=int) -> tuple:
    """(int v, second(w)) from ``item`` = ``v<sep>w``; a ValueError names it."""
    try:
        v, w = item.split(sep)
        return int(v), second(w)
    except ValueError:
        raise ValueError(f"bad {field} token {item!r}") from None


# --------------------------------------------------------------------------
# half-edge pairings


def parse_pairing(text: str) -> HalfEdgePairing:
    """Format: ``g=G L=m R=n b:i-j b:i-j r:i-j``; each size key once."""
    sizes, blue, red = {}, [], []
    for tok in text.split():
        key, value = tok[:2], tok[2:]
        if key in ("g=", "L=", "R=") and key[0] in sizes:
            raise ValueError(f"repeated pairing key {key!r}")
        try:
            if key in ("g=", "L=", "R="):
                sizes[key[0]] = int(value)
            elif key in ("b:", "r:"):
                i, _, j = value.partition("-")
                (blue if key == "b:" else red).append((int(i), int(j)))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad pairing token {tok!r}") from None
    if len(sizes) < 3:
        raise ValueError("pairing needs g=, L=, R=")
    return HalfEdgePairing(sizes["g"], sizes["L"], sizes["R"], tuple(blue), tuple(red))
