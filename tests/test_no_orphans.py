"""Every top-level def or class in ``whitebox_tools_ray/`` is named by some
non-test module (the package itself, ``__ray_entry__.py``, ``bench.py``
or ``layerbench/``), or is listed below with the role that keeps it.

A second implementation of an operator that only its own test calls
fails here; delete it, or move its cases onto the registered path."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "whitebox_tools_ray"

# dotted name (relative to the package) -> why it stays without a caller
ALLOWED = {
    # public API: what users call, exercised by tests
    "api.tool": "decorator that registers a tool from user code",
    "api.list_tools": "registry listing",
    "api.tool_parameters": "a tool's JSON parameter schema",
    "kernels.cells.quad_parent": "quad cell id one level up",
    "kernels.cells.hex_cell_center": "hex cell centre from axial coordinates",
    "kernels.geometry.is_clockwise_order": "ring orientation (is_clockwise_order.rs)",
    "kernels.geometry.poly_is_convex": "ring convexity test",
    "kernels.geometry.interior_point": "a point guaranteed inside a ring",
    "kernels.grid.rebase_tile_names": "re-number tile names from zero",
    "kernels.phash.hamming64": "distance between two perceptual hashes",
    "kernels.riff_codec.write_avi_mjpeg": "AVI container writer",
    "reporting.line_graph_svg": "SVG line graph for tool reports",
    "reporting.scattergram_svg": "SVG scattergram for tool reports",
    # test fixtures
    "sources.tiles.assemble_scene": "decodes a tile table into one grid",
    "sources.vectors.fixture_points": "FIXTURES.md point layer",
    "sources.vectors.fixture_attrs": "FIXTURES.md attribute table",
    # whole-grid oracles of the registered Dataset forms
    "stages.basins.basins": "oracle of basins_ds",
    "stages.basins.watershed": "oracle of watershed_ds",
    "stages.basins.downslope_distance_to_stream": "oracle of downslope_distance_to_stream_ds",
    "stages.cc._local_labels": "row-major union-find oracle of clump_ds",
    "stages.cost.cost_pathway": "oracle of cost_pathway_ds",
    "stages.distance.euclidean_distance": "oracle of euclidean_distance_ds",
    "stages.streams.stream_links_small": "oracle of stream_links_ds",
    "stages.streams.stream_link_slope": "oracle of stream_link_slope_ds",
    "stages.streams.distance_to_outlet_small": "oracle of distance_to_outlet_ds",
    "stages.streams.farthest_channel_head_small": "oracle of farthest_channel_head_ds",
    "stages.visibility.horizon_angle": "oracle of horizon_angle_ds",
    "stages.visibility.fetch_analysis": "oracle of fetch_analysis_ds",
    "stages.visibility.directional_relief": "oracle of directional_relief_ds",
    "stages.visibility.visibility_index": "oracle of visibility_index_ds",
}


def _non_test_sources():
    files = [ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    for top in (PACKAGE, "layerbench"):
        files += [p for p in sorted((ROOT / top).rglob("*.py")) if "tests" not in p.relative_to(ROOT).parts]
    return files


def _scan():
    """(names any non-test module uses, {dotted name: file:line} of the
    package's top-level defs and classes)."""
    named, defs = set(), {}
    for path in _non_test_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
        rel = path.relative_to(ROOT)
        if rel.parts[0] != PACKAGE:
            continue
        module = ".".join(rel.with_suffix("").parts[1:])
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = f"{rel}:{node.lineno}"
    return named, defs


def test_every_def_has_a_caller():
    named, defs = _scan()
    orphans = sorted(
        f"{where} {key}" for key, where in defs.items() if key.rsplit(".", 1)[-1] not in named and key not in ALLOWED
    )
    assert not orphans, "top-level defs no non-test module names:\n" + "\n".join(orphans)


def test_allowlist_is_current():
    named, defs = _scan()
    stale = sorted(key for key in ALLOWED if key not in defs or key.rsplit(".", 1)[-1] in named)
    assert not stale, "allowlisted defs that are gone or now have a caller: " + ", ".join(stale)


def _unused_imports(path: Path):
    """file:line name of each import no code in its scope uses: a module
    import unused in the whole module (names in ``__all__`` count as
    used, and a package ``__init__`` re-exports its imports), a function
    import unused in that function's body. Names that appear only inside
    strings are unused."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(ROOT)

    def bound(node):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return []
        return [(a.asname or a.name.split(".", 1)[0], node.lineno) for a in node.names if a.name != "*"]

    def used(scope):
        return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}

    found = []
    if path.name != "__init__.py":
        names = used(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{rel}:{line} {name}" for name, line in bound(node) if name not in names]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = used(fn)
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [f"{rel}:{line} {name}" for name, line in bound(node) if name not in names]
    return found


def test_no_unused_imports():
    files = [ROOT / "__ray_entry__.py"] + sorted((ROOT / PACKAGE).rglob("*.py"))
    unused = sorted({u for path in files for u in _unused_imports(path)})
    assert not unused, "imports nothing in their scope uses:\n" + "\n".join(unused)
