"""The operator registry — the engine's user-extension surface.

Mirrors the reference's machine-readable tool contract (trait
``WhiteboxTool`` + per-tool JSON ``ToolParameter`` lists,
/root/reference/src/tools/mod.rs:1213-1352 and the 435 generated Python
wrappers in whitebox_tools.py): every engine operator registers a
:class:`Tool` with a name, a parameter schema, and a ``build`` function
``(dataset(s), **params) → Dataset | DataFrame | dict``.

    from whitebox_tools_ray.api import run, list_tools, tool_parameters
    out = run("Slope", tiles=tiles_ds, spec=scene_spec)

Reference tool names resolve case-insensitively with underscores
stripped, exactly like ToolManager::get_tool (mod.rs:480).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Tool", "tool", "run", "list_tools", "get_tool", "tool_parameters"]

_REGISTRY: dict[str, "Tool"] = {}


@dataclass
class Tool:
    name: str
    description: str
    toolbox: str
    parameters: list[dict] = field(default_factory=list)
    build: Callable[..., Any] = None
    reference: str = ""  # file:line of the reference tool this mirrors

    def __call__(self, *args, **kwargs):
        return self.build(*args, **kwargs)


def _key(name: str) -> str:
    return name.lower().replace("_", "")


def tool(name: str, description: str, toolbox: str, parameters: list[dict] | None = None, reference: str = ""):
    def deco(fn):
        _REGISTRY[_key(name)] = Tool(
            name=name,
            description=description,
            toolbox=toolbox,
            parameters=parameters or [],
            build=fn,
            reference=reference,
        )
        return fn

    return deco


def register(name: str, fn, description: str, toolbox: str, parameters=None, reference: str = ""):
    _REGISTRY[_key(name)] = Tool(
        name=name,
        description=description,
        toolbox=toolbox,
        parameters=parameters or [],
        build=fn,
        reference=reference,
    )


def get_tool(name: str) -> Tool:
    k = _key(name)
    if k not in _REGISTRY:
        raise KeyError(f"unknown tool {name!r}; see list_tools()")
    return _REGISTRY[k]


def run(name: str, *args, **kwargs):
    return get_tool(name)(*args, **kwargs)


def list_tools(toolbox: str | None = None) -> list[str]:
    names = sorted(t.name for t in _REGISTRY.values() if toolbox is None or t.toolbox == toolbox)
    return names


def tool_parameters(name: str) -> list[dict]:
    """The JSON parameter schema (ToolParameter analog, mod.rs:1285-1352)."""
    return get_tool(name).parameters


# --- registrations -----------------------------------------------------------


def __flip(ds, spec=None, direction="vertical"):
    """Scene-level flip (image_analysis/flip_image.rs): flips pixels
    WITHIN each tile and, when ``spec`` is given, remaps the tile grid
    position so the whole scene flips — tile (r, c) lands at
    (tiles_y-1-r, c) for vertical, etc. Requires exact tiling (edge
    tiles not padded) for the scene-level remap; per-row blob decode is
    inherent, but batch size is left to Ray's defaults and the source
    fmt is preserved (no f64 -> f32 downcast)."""
    import pyarrow as _pa

    from .kernels import codecs as _codecs

    flip_v = direction in ("vertical", "both")
    flip_h = direction in ("horizontal", "both")
    if spec is not None and (
        spec.rows % spec.tile_px or spec.columns % spec.tile_px
    ):
        raise ValueError(
            "FlipImage scene remap needs exact tiling (rows/columns divisible "
            f"by tile_px); got {spec.rows}x{spec.columns} @ {spec.tile_px}"
        )

    def fn(batch):
        blobs = []
        for i in range(batch.num_rows):
            g = _codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            if flip_v:
                g = g[::-1, :]
            if flip_h:
                g = g[:, ::-1]
            blobs.append(
                _codecs.encode_tile(np.ascontiguousarray(g), batch["fmt"][i].as_py())
            )
        t = batch.set_column(
            batch.schema.get_field_index("bytes"), "bytes", _pa.array(blobs, _pa.binary())
        )
        if spec is not None:
            if flip_v:
                tr = batch["tile_row"].to_numpy(zero_copy_only=False)
                t = t.set_column(
                    t.schema.get_field_index("tile_row"), "tile_row",
                    _pa.array(spec.tiles_y - 1 - tr, type=batch.schema.field("tile_row").type),
                )
            if flip_h:
                tc = batch["tile_col"].to_numpy(zero_copy_only=False)
                t = t.set_column(
                    t.schema.get_field_index("tile_col"), "tile_col",
                    _pa.array(spec.tiles_x - 1 - tc, type=batch.schema.field("tile_col").type),
                )
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


import numpy as np


def _register_all():
    from .stages import (
        ann,
        assign,
        cc,
        clip_raster,
        dedup,
        flow,
        focal,
        gridding,
        joins,
        kmeans,
        mathops,
        multimodal,
        raster_vector,
        resample as resample_mod,
        spatial_join,
        stats,
        stats2,
        stretch,
        text,
        vector_metrics,
        windows,
        zonal,
    )

    P = lambda n, t, **kw: {"name": n, "parameter_type": t, **kw}  # noqa: E731

    # data_tools
    register("JoinTables", joins.broadcast_hash_join, "Attribute left-join, last-dup-wins", "data_tools",
             [P("probe_ds", "Dataset"), P("build", "Table"), P("key", "String")], "data_tools/join_tables.rs:316-361")
    register("MergeTableWithCsv", joins.broadcast_hash_join, "CSV-side attribute join", "data_tools",
             [P("probe_ds", "Dataset"), P("build", "Table"), P("key", "String")], "data_tools/merge_table_with_csv.rs")
    register("RasterToVectorPoints", raster_vector.raster_to_vector_points, "Nonzero cells → points, scan-order FID",
             "data_tools", [P("tiles_ds", "Dataset"), P("scene_spec", "SceneSpec")],
             "data_tools/raster_to_vector_points.rs:209-229")
    register("VectorPointsToRaster", raster_vector.vector_points_to_raster, "Point burn-in w/ collision policy",
             "data_tools", [P("points_ds", "Dataset"), P("gs", "GridSpec"), P("collision", "OptionList")],
             "data_tools/vector_points_to_raster.rs")
    ro = __import__("whitebox_tools_ray.stages.raster_ops", fromlist=["x"])
    register("ConvertNodataToZero", ro.convert_nodata_to_zero, "nodata -> 0 per cell", "data_tools",
             [], "data_tools/convert_nodata_to_zero.rs")
    register("ModifyNoDataValue", ro.modify_nodata_value, "Rewrite nodata sentinel", "data_tools",
             [], "data_tools/modify_nodata_value.rs")
    register("SetNodataValue", ro.set_nodata_value, "Set header nodata", "data_tools",
             [], "data_tools/set_nodata_value.rs")
    register("RasterCellAssignment", ro.raster_cell_assignment, "Fill with row/col/x/y", "gis_analysis",
             [], "gis_analysis/raster_cell_assignment.rs")
    register("IntegralImage", ro.integral_image_ds, "Exact tiled summed-area table (Dataset-native edge-vector exchange)", "image_analysis",
             [], "image_analysis/integral_image.rs")
    fo = __import__("whitebox_tools_ray.stages.focal", fromlist=["x"])
    register("DevFromMeanElev", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "dev_from_mean", radius),
             "Windowed local z-score (integral image)", "terrain_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("radius", "Integer")],
             "terrain_analysis/dev_from_mean_elev.rs")
    register("DiffFromMeanElev", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "diff_from_mean", radius),
             "z minus windowed mean", "terrain_analysis", [],
             "terrain_analysis/diff_from_mean_elev.rs")
    register("PercentElevRange", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "percent_elev_range", radius),
             "z over windowed range x100", "terrain_analysis", [],
             "terrain_analysis/percent_elev_range.rs:25")
    register("RelativeTopographicPosition", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "relative_topographic_position", radius),
             "Two-sided (z-mean)/relief position", "terrain_analysis", [],
             "terrain_analysis/relative_topographic_position.rs:26-34")
    register("ElevPercentile", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "elev_percentile", radius),
             "Percent of window cells below z", "terrain_analysis", [],
             "terrain_analysis/elev_percentile.rs")
    register("MaxDifferenceFromMean", lambda ds, spec, radius=3: fo.window_stat_op(ds, spec, "diff_from_mean", radius),
             "Diff-from-mean at the given scale (single-scale form)", "terrain_analysis", [],
             "terrain_analysis/max_diff_from_mean.rs (single-scale slice)")
    register("CreateColourComposite", ro.create_colour_composite, "Pack RGB into composite float",
             "image_analysis", [], "image_analysis/create_colour_composite.rs; raster/mod.rs:604-611")
    register("SplitColourComposite", ro.split_colour_composite, "Unpack composite -> r/g/b",
             "image_analysis", [], "image_analysis/split_colour_composite.rs")
    register("NewRasterFromBase", __import__("whitebox_tools_ray.pipelines.flagship", fromlist=["x"]).synthesize_tiles_parallel,
             "Synthesize a tile table on a grid", "data_tools", [], "data_tools/new_raster.rs")
    register("AttributeCorrelation", stats2.correlation, "Pearson r of attribute columns",
             "math_stat_analysis", [], "math_stat_analysis/attribute_correlation.rs")
    register("AttributeHistogram", stats.histogram, "Histogram of an attribute column",
             "math_stat_analysis", [], "math_stat_analysis/attribute_histogram.rs")
    register("HypsometricAnalysis", stats.hypsometric_curve, "Cumulative area-above-elevation curve",
             "terrain_analysis", [], "terrain_analysis/hypsometric_analysis.rs")
    rz = __import__("whitebox_tools_ray.stages.rasterize", fromlist=["x"])
    register("VectorLinesToRaster", rz.lines_to_raster, "Segment burn-in (sub-cell stepping)",
             "data_tools", [], "data_tools/vector_lines_to_raster.rs")
    register("VectorPolygonsToRaster", rz.polygons_to_raster, "Cell-center polygon fill",
             "data_tools", [], "data_tools/vector_polygons_to_raster.rs")
    register("RasterizeStreams", rz.lines_to_raster, "Stream lines burn-in", "stream_network_analysis",
             [], "stream_network_analysis/rasterize_streams.rs")
    register("ConvertRasterFormat", assign.DecodeVerifyReencode, "Decode + re-encode tiles", "data_tools",
             [P("out_fmt", "OptionList")], "data_tools/convert_raster_format.rs")

    # gis_analysis
    register("Clip", spatial_join.clip_points, "Points-in-polygon clip, last-part-wins holes", "gis_analysis",
             [P("points_ds", "Dataset"), P("poly_table", "Table")], "gis_analysis/clip.rs:292-363")
    register("Erase", lambda ds, poly, **kw: spatial_join.clip_points(ds, poly, mode="erase", **kw),
             "Inverse clip", "gis_analysis", [P("points_ds", "Dataset"), P("poly_table", "Table")],
             "gis_analysis/erase.rs")
    register("ClipRasterToPolygon", clip_raster.clip_raster_to_polygon, "Per-tile polygon mask", "gis_analysis",
             [P("tiles_ds", "Dataset"), P("poly_table", "Table"), P("scene_spec", "SceneSpec")],
             "gis_analysis/clip_raster_to_polygon.rs:230-403")
    register("ErasePolygonFromRaster", lambda t, p, s, **kw: clip_raster.clip_raster_to_polygon(t, p, s, erase=True, **kw),
             "Per-tile polygon erase", "gis_analysis", [], "gis_analysis/erase_polygon_from_raster.rs")
    register("ExtractRasterValuesAtPoints", spatial_join.extract_values_at_points, "Point → cell gather",
             "gis_analysis", [], "gis_analysis/extract_raster_values_at_points.rs:243-258")
    register("KNearestJoin", spatial_join.knn_join, "k nearest right points per left point (FRS)",
             "gis_analysis", [P("left_ds", "Dataset"), P("right_table", "Table"), P("k", "Integer")],
             "structures/fixed_radius_search.rs:134-218 (kNN surface)")
    register("RasterToVectorLines", __import__("whitebox_tools_ray.stages.raster_vector", fromlist=["x"]).raster_to_vector_lines,
             "Category-boundary cell edges -> stitched polylines", "data_tools",
             [P("tiles_ds", "Dataset"), P("scene_spec", "SceneSpec")],
             "data_tools/raster_to_vector_lines.rs")
    register("TINGridding", gridding.tin_gridding, "Per-tile Delaunay + barycentric interpolation",
             "gis_analysis", [P("points_table", "Table"), P("spec", "SceneSpec")],
             "gis_analysis/tin_gridding.rs; algorithms/delaunay_triangulation.rs:446")
    register("LidarTINGridding", gridding.tin_gridding, "TIN gridding over a point cloud",
             "lidar_analysis", [P("points_table", "Table"), P("spec", "SceneSpec")],
             "lidar_analysis (lidar_tin_gridding.rs)")
    register("ConstructVectorTIN", gridding.construct_vector_tin, "Delaunay triangles as polygons",
             "gis_analysis", [P("points_table", "Table")], "gis_analysis/construct_vector_tin.rs")
    register("LidarConstructVectorTIN", gridding.construct_vector_tin, "TIN polygons from a point cloud",
             "lidar_analysis", [P("points_table", "Table")], "lidar_analysis/lidar_construct_vector_tin.rs")
    register("VoronoiDiagram", gridding.voronoi_diagram, "Voronoi polygons clipped to a bbox",
             "gis_analysis", [P("points_table", "Table"), P("bbox", "List")],
             "gis_analysis/voronoi_diagram.rs")
    register("VectorHexBinning", zonal.cell_binning, "Cell-bin counts (hex/quad)", "gis_analysis",
             [P("ds", "Dataset"), P("x_col", "String"), P("y_col", "String"), P("kind", "OptionList")],
             "gis_analysis/vector_hex_bin.rs:313-386")
    # vector overlay family (planar-arrangement kernel, kernels/arrangement.py)
    ovl = __import__("whitebox_tools_ray.stages.overlay", fromlist=["x"])
    register("Intersect", ovl.intersect, "Geometric AND of two polygon layers", "gis_analysis",
             [P("a_ds", "Dataset"), P("b_table", "Table")], "gis_analysis/intersect.rs; algorithms/line_ops.rs:86-199")
    register("Difference", ovl.difference, "Subject minus overlay region", "gis_analysis",
             [P("a_ds", "Dataset"), P("b_table", "Table")], "gis_analysis/difference.rs")
    register("Union", ovl.union_layers, "Region covered by either layer (A ⊎ B−A fragments)",
             "gis_analysis", [P("a_ds", "Dataset"), P("b_table", "Table"), P("b_ds", "Dataset"), P("a_table", "Table")],
             "gis_analysis/union.rs")
    register("SymmetricalDifference", ovl.symmetrical_difference, "(A−B) ⊎ (B−A)", "gis_analysis",
             [P("a_ds", "Dataset"), P("b_table", "Table"), P("b_ds", "Dataset"), P("a_table", "Table")],
             "gis_analysis/symmetrical_difference.rs")
    register("ClipPolygons", ovl.clip_polys, "Clip, polygon branch", "gis_analysis",
             [P("a_ds", "Dataset"), P("clip_table", "Table")], "gis_analysis/clip.rs:574-1600")
    register("ErasePolygons", ovl.erase_polys, "Erase, polygon branch", "gis_analysis",
             [P("a_ds", "Dataset"), P("erase_table", "Table")], "gis_analysis/erase.rs")
    register("SplitWithLines", ovl.split_with_lines, "Cut polygons by a line layer (per-face fragments)",
             "gis_analysis", [P("a_ds", "Dataset"), P("lines_table", "Table")], "gis_analysis/split_with_lines.rs")
    register("Polygonize", ovl.polygonize, "Bounded faces of a line arrangement", "gis_analysis",
             [P("lines_table", "Table")], "gis_analysis/polygonize.rs")
    register("Dissolve", ovl.dissolve, "Merge polygons sharing an attribute (shared edges removed)",
             "gis_analysis", [P("ds", "Dataset"), P("field", "VectorAttributeField")], "gis_analysis/dissolve.rs:254-302")
    register("MergeLineSegments", ovl.merge_line_segments, "Stitch touching segments into chains",
             "gis_analysis", [P("ds", "Dataset")], "gis_analysis/merge_line_segments.rs")
    register("LineIntersections", __import__("whitebox_tools_ray.stages.line_ops", fromlist=["x"]).line_intersections,
             "Intersection points of two line layers", "gis_analysis", [], "gis_analysis/line_intersections.rs")
    register("EliminateCoincidentPoints", dedup.coincident_dedup,
             "Tolerance-quantized coordinate dedup keep-first", "gis_analysis",
             [P("ds", "Dataset"), P("x_col", "String"), P("y_col", "String"), P("tolerance", "Float")],
             "gis_analysis/eliminate_coincident_points.rs")
    for m, desc in [
        ("PolygonArea", "Shoelace area, holes subtract"),
        ("PolygonPerimeter", "All-ring perimeter"),
        ("CompactnessRatio", "P/(2*sqrt(pi*A))"),
        ("ElongationRatio", "1 - short/long of min bounding box"),
        ("PerimeterAreaRatio", "P/A"),
        ("MinimumBoundingBox", "Rotating-calipers min box"),
        ("MinimumBoundingCircle", "Welzl circle"),
        ("MinimumConvexHull", "Monotone-chain hull"),
        ("CentroidVector", "Vertex-average centroid"),
        ("HoleProportion", "Hole/shell area ratio"),
        ("LinearityIndex", "Vertex regression r^2"),
        ("RelatedCircumscribingCircle", "1 - A/Ac (Welzl circle area)"),
        ("ShapeComplexityIndex", "1 - A/Ah (convex hull area)"),
        ("PatchOrientation", "RMA slope on hull nodes, deg from north"),
        ("BoundaryShapeComplexity", "Vertex-set shape complexity metrics"),
    ]:
        register(m, vector_metrics.polygon_metrics, desc, "gis_analysis",
                 [P("poly_ds", "Dataset"), P("metrics", "StringList")], "gis_analysis (metric family, SURVEY §2.4)")
    register("PolygonLongAxis", lambda ds: vector_metrics.polygon_axes(ds, "long"),
             "Line through MBB centre along the long side", "gis_analysis",
             [], "gis_analysis/polygon_long_axis.rs")
    register("PolygonShortAxis", lambda ds: vector_metrics.polygon_axes(ds, "short"),
             "Line through MBB centre along the short side", "gis_analysis",
             [], "gis_analysis/polygon_short_axis.rs")
    register("MinimumBoundingEnvelope", vector_metrics.minimum_bounding_envelope,
             "Per-feature axis-aligned box", "gis_analysis",
             [], "gis_analysis/minimum_bounding_envelope.rs")
    register("Medoid", vector_metrics.medoid, "Node nearest the axis-median", "gis_analysis",
             [], "gis_analysis/medoid.rs:17-24")
    register("LayerFootprint", vector_metrics.layer_footprint, "Layer bounding box",
             "gis_analysis", [], "gis_analysis/layer_footprint.rs")

    vo = __import__("whitebox_tools_ray.stages.vector_ops", fromlist=["x"])
    register("ExtractNodes", vo.extract_nodes, "Vertices -> points", "gis_analysis",
             [], "gis_analysis/extract_nodes.rs")
    register("MultiPartToSinglePart", vo.multipart_to_singlepart, "Explode parts -> records",
             "data_tools", [], "data_tools/multipart_to_singlepart.rs")
    register("SinglePartToMultiPart", vo.singlepart_to_multipart, "Merge records by field -> multipart",
             "data_tools", [], "data_tools/singlepart_to_multipart.rs")
    register("RemovePolygonHoles", vo.remove_polygon_holes, "Drop CCW parts", "data_tools",
             [], "data_tools/remove_polygon_holes.rs")
    register("CleanVector", vo.clean_vector, "Drop degenerate geometries", "data_tools",
             [], "data_tools/clean_vector.rs")
    register("ReinitializeAttributeTable", vo.reinitialize_attribute_table,
             "Keep geometry + FID only", "data_tools", [], "data_tools/reinitialize_attribute_table.rs")
    register("PrintGeoTiffTags", vo.print_tile_tags, "Dump tile-table header metadata",
             "data_tools", [], "data_tools/print_geotiff_tags.rs (tile-table analog)")
    register("SmoothVectors", vo.smooth_vectors, "Moving-average vertices", "gis_analysis",
             [], "gis_analysis/smooth_vectors.rs")
    register("PolygonsToLines", vo.polygons_to_lines, "Poly -> polyline retype", "data_tools",
             [], "data_tools/polygons_to_lines.rs")
    register("LinesToPolygons", vo.lines_to_polygons, "Close polylines -> polys", "data_tools",
             [], "data_tools/lines_to_polygons.rs")
    register("ExtendVectorLines", vo.extend_vector_lines, "Lengthen line ends", "gis_analysis",
             [], "gis_analysis/extend_vector_lines.rs")
    register("AddPointCoordinatesToTable", vo.add_point_coordinates, "Append XCOORD/YCOORD",
             "data_tools", [], "data_tools/add_point_coordinates_to_table.rs")
    register("LidarTileFootprint", vo.tile_footprints, "Per-tile bounding polygons",
             "lidar_analysis", [], "lidar_analysis/lidar_tile_footprint.rs")
    register("SelectTilesByPolygon", vo.select_tiles_by_polygon, "Tiles touching a polygon layer",
             "lidar_analysis", [], "lidar_analysis/select_tiles_by_polygon.rs:240-300")

    # lidar_analysis (tiling surface)
    register("LidarTile", lambda ds, tg, **kw: assign.assign_tiles(ds, tg, **kw), "Tile-grid assignment",
             "lidar_analysis", [P("ds", "Dataset"), P("tile_grid", "TileGrid")], "lidar_analysis/lidar_tile.rs:257-281")
    li = __import__("whitebox_tools_ray.stages.lidar", fromlist=["x"])
    register("FilterLidarClasses", li.filter_lidar_classes, "Drop excluded point classes",
             "lidar_analysis", [P("ds", "Dataset"), P("exclude", "StringList")],
             "lidar_analysis/filter_lidar_classes.rs")
    register("FilterLidarScanAngles", li.filter_scan_angles, "Drop |scan angle| > threshold",
             "lidar_analysis", [], "lidar_analysis/filter_lidar_scan_angles.rs")
    register("LidarElevationSlice", li.elevation_slice, "Keep minz<=z<=maxz, optional reclass",
             "lidar_analysis", [], "lidar_analysis/lidar_elevation_slice.rs")
    register("LidarThin", li.lidar_thin, "One survivor per resolution cell (first/lowest/highest)",
             "lidar_analysis", [], "lidar_analysis/lidar_thin.rs")
    register("LidarThinHighDensity", li.lidar_thin, "Cell thinning (density cap form)",
             "lidar_analysis", [], "lidar_analysis/lidar_thin_high_density.rs")
    register("LidarPointDensity", li.point_density, "Points per unit area on a grid",
             "lidar_analysis", [], "lidar_analysis/lidar_point_density.rs")
    register("FlightlineOverlap", li.flightline_overlap, "Distinct flightlines per cell",
             "lidar_analysis", [], "lidar_analysis/flightline_overlap.rs")
    register("ClassifyOverlapPoints", li.classify_overlap_points,
             "Flag points from later flightlines in shared cells", "lidar_analysis",
             [], "lidar_analysis/classify_overlap_points.rs")
    register("LidarRemoveDuplicates",
             lambda ds, **kw: dedup.coincident_dedup(ds, z_col=kw.pop("z_col", None), **kw),
             "Quantized x,y[,z] dedup keep-first", "lidar_analysis",
             [P("ds", "Dataset"), P("x_col", "String"), P("y_col", "String"), P("tolerance", "Float")],
             "lidar_analysis/remove_duplicates.rs")
    li2 = __import__("whitebox_tools_ray.stages.lidar2", fromlist=["x"])
    register("LidarRemoveOutliers", li2.lidar_remove_outliers,
             "Drop |z - neighbour mean| > elev_diff", "lidar_analysis",
             [], "lidar_analysis/lidar_outliers.rs:22-24")
    register("LidarGroundPointFilter", li2.lidar_ground_point_filter,
             "Slope-based off-ground classification", "lidar_analysis",
             [], "lidar_analysis/lidar_ground_point_filter.rs:21-29")
    register("NormalVectors", li2.normal_vectors, "Local PCA plane normals", "lidar_analysis",
             [], "lidar_analysis/normal_vectors.rs")
    register("LidarHillshade", li2.lidar_hillshade, "Per-point hillshade from local normal",
             "lidar_analysis", [], "lidar_analysis/lidar_hillshade.rs")
    register("LidarTophatTransform", li2.lidar_tophat, "z - opening(z) over neighbourhood",
             "lidar_analysis", [], "lidar_analysis/lidar_tophat.rs")
    register("LidarSegmentation", li2.lidar_segmentation,
             "Region growing by normal similarity (cross-cell merge)", "lidar_analysis",
             [], "lidar_analysis/lidar_segmentation.rs")
    register("LidarSegmentationBasedFilter", li2.lidar_segmentation_based_filter,
             "Ground = near-vertical-normal segments", "lidar_analysis",
             [], "lidar_analysis/lidar_segmentation_based_filter.rs")
    register("LidarRansacPlanes", li2.lidar_ransac_planes,
             "Seeded per-neighbourhood RANSAC plane ids", "lidar_analysis",
             [], "lidar_analysis/lidar_ransac_planes.rs")
    register("FindFlightlineEdgePoints", li2.find_flightline_edge_points,
             "Max |scan angle| points per flightline", "lidar_analysis",
             [], "lidar_analysis/find_flightline_edge_points.rs")
    register("LidarInfo", li2.lidar_info, "Count/extent/z-range/class histogram",
             "lidar_analysis", [], "lidar_analysis/lidar_info.rs")
    register("LidarPointStats", li2.lidar_point_stats, "Per-cell n/zmin/zmax",
             "lidar_analysis", [], "lidar_analysis/lidar_point_stats.rs")
    register("LidarJoin", li2.lidar_join, "Union of point datasets", "lidar_analysis",
             [], "lidar_analysis/lidar_join.rs")
    register("LidarClassifySubset", li2.lidar_classify_subset,
             "Classify points inside a polygon", "lidar_analysis",
             [], "lidar_analysis/lidar_classify_subset.rs")
    register("LidarKappaIndex", li2.lidar_kappa, "Kappa of class columns joined on pid",
             "lidar_analysis", [], "lidar_analysis/lidar_kappa.rs")
    register("LasToAscii", li2.las_to_ascii, "Points as whitespace-joined text lines",
             "lidar_analysis", [], "lidar_analysis/las_to_ascii.rs")
    register("LasToShapefile", li2.las_to_shapefile, "One POINT record per point",
             "lidar_analysis", [], "lidar_analysis/las_to_shapefile.rs")
    register("LasToMultipointShapefile", li2.las_to_multipoint_shapefile,
             "One MULTIPOINT record per flightline", "lidar_analysis",
             [], "lidar_analysis/las_to_multipoint_shapefile.rs")
    register("LidarColourize", li2.lidar_colourize, "Sample tile value at each point",
             "lidar_analysis", [], "lidar_analysis/lidar_colourize.rs")
    register("ClipLidarToPolygon",
             lambda pts, poly, **kw: __import__("whitebox_tools_ray.stages.spatial_join", fromlist=["x"]).clip_points(pts, poly, mode="clip", renumber_fid=False, **kw),
             "Points inside polygon (clip kernel)", "lidar_analysis",
             [], "lidar_analysis/clip_lidar_to_polygon.rs")
    register("ErasePolygonFromLidar",
             lambda pts, poly, **kw: __import__("whitebox_tools_ray.stages.spatial_join", fromlist=["x"]).clip_points(pts, poly, mode="erase", renumber_fid=False, **kw),
             "Points outside polygon (erase kernel)", "lidar_analysis",
             [], "lidar_analysis/erase_polygon_from_lidar.rs")

    # math_stat_analysis
    register("ZonalStatistics", zonal.zonal_statistics, "Per-zone n/total/min/max/mean/std", "math_stat_analysis",
             [P("ds", "Dataset"), P("zone_col", "String"), P("value_col", "String")],
             "math_stat_analysis/zonal_statistics.rs:299-380")
    register("ListUniqueValues", zonal.list_unique_values, "Distinct + counts", "math_stat_analysis",
             [], "math_stat_analysis/list_unique_values.rs")
    register("ZScores", stats.zscores, "Global mean/std standardize", "math_stat_analysis",
             [], "math_stat_analysis/zscores.rs")
    register("Quantiles", stats.quantiles, "Global quantile classes", "math_stat_analysis",
             [], "math_stat_analysis/quantiles.rs")
    register("Reclass", stats.reclass, "Range LUT reclass", "math_stat_analysis",
             [], "math_stat_analysis/reclass.rs")
    register("RasterHistogram", stats.histogram, "Global histogram", "math_stat_analysis",
             [], "math_stat_analysis/raster_histogram.rs")
    register("RasterSummaryStats", stats.global_mean_std, "Global mean/std", "math_stat_analysis",
             [], "math_stat_analysis/raster_summary_stats.rs")
    # the ~50 per-cell scalar tools collapse onto mathops.scalar_op
    _SCALAR_TOOLS = {
        "AbsoluteValue": "abs", "Add": "add", "And": "and", "ArcCos": "arccos", "ArcSin": "arcsin",
        "ArcTan": "arctan", "Atan2": "atan2", "Arcosh": "arcosh", "Arsinh": "arsinh", "Artanh": "artanh",
        "Ceil": "ceil", "Cos": "cos", "Cosh": "cosh", "Decrement": "decrement", "Divide": "divide",
        "EqualTo": "equal_to", "Exp": "exp", "Exp2": "exp2", "Floor": "floor", "GreaterThan": "greater_than",
        "Increment": "increment", "IntegerDivision": "integer_division", "IsNoData": "is_nodata",
        "LessThan": "less_than", "Ln": "ln", "Log10": "log10", "Log2": "log2", "Max": "max", "Min": "min",
        "Modulo": "modulo", "Multiply": "multiply", "Negate": "negate", "Not": "not",
        "NotEqualTo": "not_equal_to", "Or": "or", "Power": "power", "Reciprocal": "reciprocal",
        "Round": "round", "Sin": "sin", "Sinh": "sinh", "Square": "square", "SquareRoot": "sqrt",
        "Subtract": "subtract", "Tan": "tan", "Tanh": "tanh", "ToDegrees": "to_degrees",
        "ToRadians": "to_radians", "Truncate": "truncate", "Xor": "xor",
        # the InPlace* variants are the same per-cell kernels — "in place"
        # is a memory detail of the reference's mutable rasters
        # (in_place_add.rs etc.); a Dataset column rewrite is the analog
        "InPlaceAdd": "add", "InPlaceSubtract": "subtract",
        "InPlaceMultiply": "multiply", "InPlaceDivide": "divide",
    }
    for tname, op in _SCALAR_TOOLS.items():
        register(
            tname,
            (lambda _op: lambda ds, col, other=None, **kw: mathops.scalar_op(ds, _op, col, other, **kw))(op),
            f"Per-record scalar {op}",
            "math_stat_analysis",
            [P("ds", "Dataset"), P("col", "String"), P("other", "ExistingFileOrFloat", optional=True)],
            "math_stat_analysis (scalar family, SURVEY §2.8)",
        )

    # image_analysis
    register("MeanFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "mean", radius),
             "Square mean filter", "image_analysis", [], "image_analysis/mean_filter.rs")
    register("MinimumFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "min", radius),
             "Square min filter", "image_analysis", [], "image_analysis/minimum_filter.rs")
    register("MaximumFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "max", radius),
             "Square max filter", "image_analysis", [], "image_analysis/maximum_filter.rs")
    register("RangeFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "range", radius),
             "Square range filter", "image_analysis", [], "image_analysis/range_filter.rs")
    register("TotalFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "total", radius),
             "Square sum filter", "image_analysis", [], "image_analysis/total_filter.rs")
    register("StandardDeviationFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "stdev", radius),
             "Square stdev filter", "image_analysis", [], "image_analysis/stdev_filter.rs")
    register("MedianFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "median", radius),
             "Square median filter", "image_analysis", [], "image_analysis/median_filter.rs")
    register("PercentileFilter", lambda ds, spec, radius=2, q=50.0: focal.window_filter(ds, spec, f"percentile:{q}", radius),
             "Square percentile filter", "image_analysis", [], "image_analysis/percentile_filter.rs")
    register("OlympicFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "olympic", radius),
             "Mean excluding min+max", "image_analysis", [], "image_analysis/olympic_filter.rs")
    register("MajorityFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "majority", radius),
             "Square mode filter", "image_analysis", [], "image_analysis/majority_filter.rs")
    register("DiversityFilter", lambda ds, spec, radius=2: focal.window_filter(ds, spec, "diversity", radius),
             "Distinct-count filter", "image_analysis", [], "image_analysis/diversity_filter.rs")
    register("LidarHexBinning", lambda ds, x, y, res=7: __import__("whitebox_tools_ray.stages.zonal", fromlist=["x"]).cell_binning(ds, x, y, "hex", res),
             "Hex-bin point counts", "lidar_analysis", [], "lidar_analysis/lidar_hex_bin.rs")
    register("LidarHistogram", stats.histogram, "Histogram of a point attribute", "lidar_analysis",
             [], "lidar_analysis/lidar_histogram.rs")
    register("LaplacianFilter", lambda ds, spec: focal.focal_op(ds, spec, focal.laplacian_kernel, 1),
             "3x3 Laplacian", "image_analysis", [], "image_analysis/laplacian_filter.rs")
    register("SobelFilter", lambda ds, spec: focal.focal_op(ds, spec, focal.sobel_kernel, 1),
             "Sobel magnitude", "image_analysis", [], "image_analysis/sobel_filter.rs")
    register("PrewittFilter", lambda ds, spec: focal.focal_op(ds, spec, focal.prewitt_kernel, 1),
             "Prewitt magnitude", "image_analysis", [], "image_analysis/prewitt_filter.rs")
    f2 = __import__("whitebox_tools_ray.stages.filters2", fromlist=["x"])
    register("GaussianFilter", f2.gaussian_filter, "Truncated 2-D Gaussian smoothing", "image_analysis",
             [], "image_analysis/gaussian_filter.rs")
    register("DiffOfGaussianFilter", f2.diff_of_gaussian_filter, "Difference of Gaussians band-pass",
             "image_analysis", [], "image_analysis/diff_of_gaussians_filter.rs")
    register("LaplacianOfGaussianFilter", f2.laplacian_of_gaussian_filter, "LoG edge operator",
             "image_analysis", [], "image_analysis/laplacian_of_gaussian_filter.rs")
    register("FastAlmostGaussianFilter", f2.fast_almost_gaussian_filter,
             "5 iterated box means (Kovesi widths)", "image_analysis",
             [], "image_analysis/fast_almost_gaussian_filter.rs:196-209")
    register("HighPassFilter", f2.high_pass_filter, "z - window mean", "image_analysis",
             [], "image_analysis/high_pass_filter.rs")
    register("HighPassMedianFilter", f2.high_pass_median_filter, "z - window median", "image_analysis",
             [], "image_analysis/high_pass_median_filter.rs")
    register("AdaptiveFilter", f2.adaptive_filter, "Mean replaces z when (z-mean)/s > t", "image_analysis",
             [], "image_analysis/adaptive_filter.rs:415-426")
    register("BilateralFilter", f2.bilateral_filter, "Spatial x intensity Gaussian smoothing",
             "image_analysis", [], "image_analysis/bilateral_filter.rs")
    register("ConservativeSmoothingFilter", f2.conservative_smoothing_filter,
             "Clamp z to neighbour min/max", "image_analysis",
             [], "image_analysis/conservative_smoothing_filter.rs")
    register("EdgePreservingMeanFilter", f2.edge_preserving_mean_filter,
             "Mean of window values within value threshold", "image_analysis",
             [], "image_analysis/edge_preserving_mean_filter.rs")
    register("KNearestMeanFilter", f2.k_nearest_mean_filter, "Mean of k nearest-valued neighbours",
             "image_analysis", [], "image_analysis/k_nearest_mean_filter.rs")
    register("LeeSigmaFilter", f2.lee_sigma_filter, "Sigma-range mean with 8-neighbour fallback",
             "image_analysis", [], "image_analysis/lee_filter.rs:340-375")
    register("EmbossFilter", f2.emboss_filter, "Directional 3x3 emboss", "image_analysis",
             [], "image_analysis/emboss_filter.rs")
    register("RobertsCrossFilter", f2.roberts_cross_filter, "Roberts cross gradient magnitude",
             "image_analysis", [], "image_analysis/roberts_cross_filter.rs")
    register("ScharrFilter", f2.scharr_filter, "Scharr gradient magnitude", "image_analysis",
             [], "image_analysis/scharr_filter.rs")
    register("LineDetectionFilter", f2.line_detection_filter, "Max response of 4 line stencils",
             "image_analysis", [], "image_analysis/line_detection_filter.rs")
    register("UnsharpMasking", f2.unsharp_masking, "z + amount*(z - gaussian)", "image_analysis",
             [], "image_analysis/unsharp_masking.rs")
    register("UserDefinedWeightsFilter", f2.user_defined_weights_filter, "Arbitrary odd kernel",
             "image_analysis", [], "image_analysis/user_defined_weights_filter.rs")
    register("Opening", f2.opening, "Erosion then dilation", "image_analysis",
             [], "image_analysis/opening.rs")
    register("Closing", f2.closing, "Dilation then erosion", "image_analysis",
             [], "image_analysis/closing.rs")
    register("TophatTransform", f2.tophat_transform, "White/black tophat", "image_analysis",
             [], "image_analysis/tophat.rs")
    register("LineThinning", f2.line_thinning, "Iterated directional hit-and-miss thinning",
             "image_analysis", [], "image_analysis/line_thin.rs:226-275")
    register("RemoveSpurs", f2.remove_spurs, "Iterated spur-tip removal", "image_analysis",
             [], "image_analysis/remove_spurs.rs")
    register("ThickenRasterLine", f2.thicken_raster_line, "Bridge diagonal-only connections",
             "image_analysis", [], "image_analysis/thicken_line.rs")
    register("CornerDetection", f2.corner_detection, "Hit-and-miss corner patterns", "image_analysis",
             [], "image_analysis/corner_detection.rs")
    register("MinMaxContrastStretch", stats.minmax_stretch, "Global linear stretch", "image_analysis",
             [], "image_analysis/min_max_contrast_stretch.rs")
    register("HistogramEqualization", stretch.histogram_equalization, "Global histogram CDF remap",
             "image_analysis", [], "image_analysis/histogram_equalization.rs:252-296")
    register("PercentageContrastStretch", stretch.percentage_stretch, "Tail-clipped linear stretch",
             "image_analysis", [], "image_analysis/percentage_contrast_stretch.rs")
    register("SigmoidalContrastStretch", stretch.sigmoidal_stretch, "Sigmoidal remap over global min/max",
             "image_analysis", [], "image_analysis/sigmoidal_contrast_stretch.rs:25-36")
    register("HistogramMatching", stretch.histogram_matching, "Inverse-reference-CDF remap",
             "image_analysis", [], "image_analysis/histogram_matching.rs:274-340")
    register("HistogramMatchingTwoImages", stretch.histogram_matching_two_images,
             "Match one image's histogram to another's", "image_analysis",
             [], "image_analysis/histogram_matching_two_images.rs")
    register("BalanceContrastEnhancement", stretch.balance_contrast_enhancement,
             "Liu 1991 BCET parabolic stretch", "image_analysis",
             [], "image_analysis/balance_contrast_enhancement.rs")
    register("GaussianContrastStretch", stretch.gaussian_stretch, "Histogram-to-normal remap",
             "image_analysis", [], "image_analysis/gaussian_contrast_stretch.rs")
    register("RescaleValueRange", stretch.rescale_value_range, "Linear remap onto [new_min, new_max]",
             "math_stat_analysis", [], "math_stat_analysis/rescale_value_range.rs")
    register("GammaCorrection", stretch.gamma_correction, "Normalized power-law remap",
             "image_analysis", [], "image_analysis/gamma_correction.rs")
    register("StandardDeviationContrastStretch", stretch.stdev_contrast_stretch,
             "Linear stretch of [mean-k*sd, mean+k*sd]", "image_analysis",
             [], "image_analysis/stdev_contrast_stretch.rs")
    col = __import__("whitebox_tools_ray.stages.color", fromlist=["x"])
    register("DirectDecorrelationStretch", col.direct_decorrelation_stretch,
             "Achromatic-component subtraction c' = c - k*min(r,g,b)", "image_analysis",
             [], "image_analysis/direct_decorrelation_stretch.rs:27-33")
    register("CrispnessIndex", stats2.crispness_index, "Lindsay (2006) membership crispness C",
             "math_stat_analysis", [], "math_stat_analysis/crispness_index.rs:40")
    register("RgbToIhs", col.rgb_to_ihs, "RGB -> hue/saturation/intensity", "image_analysis",
             [], "image_analysis/rgb_to_ihs.rs:798-818")
    register("IhsToRgb", col.ihs_to_rgb, "IHS -> RGB (3-sector inverse)", "image_analysis",
             [], "image_analysis/ihs_to_rgb.rs:628")
    register("FlipImage", lambda ds, spec, direction="vertical": __flip(ds, spec, direction),
             "Flip scene (within-tile pixels + tile-grid position)",
             "image_analysis", [], "image_analysis/flip_image.rs")
    register("KMeansClustering", kmeans.kmeans_fit, "Iterative k-means", "image_analysis",
             [], "image_analysis/k_means_clustering.rs")

    register("Clump", cc.clump_ds, "Connected components, Dataset-native 2-pass merge", "gis_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec")], "gis_analysis/clump.rs:246-281")
    register("IdwInterpolation", gridding.idw_gridding_auto, "IDW points->raster (broadcast table or co-partitioned Dataset)",
             "gis_analysis", [], "gis_analysis/idw_interpolation.rs")
    register("NearestNeighbourGridding", lambda p, s2, radius, **kw: gridding.idw_gridding_auto(p, s2, radius, method="nearest", **kw),
             "Nearest-point gridding", "gis_analysis", [], "gis_analysis/nearest_neighbour_gridding.rs")
    register("LidarIdwInterpolation", gridding.idw_gridding_auto, "IDW gridding of the point cloud",
             "lidar_analysis", [], "lidar_analysis/lidar_idw_interpolation.rs")
    register("LidarNearestNeighbourGridding",
             lambda p, s2, radius, **kw: gridding.idw_gridding_auto(p, s2, radius, method="nearest", **kw),
             "NN gridding of the point cloud", "lidar_analysis",
             [], "lidar_analysis/lidar_nn_gridding.rs")
    register("LidarBlockMaximum", lambda ds, gs, **kw: gridding.block_gridding(ds, gs, "max", **kw),
             "Per-cell max z", "lidar_analysis", [], "lidar_analysis/block_maximum.rs")
    register("LidarBlockMinimum", lambda ds, gs, **kw: gridding.block_gridding(ds, gs, "min", **kw),
             "Per-cell min z", "lidar_analysis", [], "lidar_analysis/block_minimum.rs")
    register("BlockMaximumGridding", lambda ds, gs, **kw: gridding.block_gridding(ds, gs, "max", **kw),
             "Per-cell max of points", "gis_analysis", [], "gis_analysis/block_maximum.rs")
    register("BlockMinimumGridding", lambda ds, gs, **kw: gridding.block_gridding(ds, gs, "min", **kw),
             "Per-cell min of points", "gis_analysis", [], "gis_analysis/block_minimum.rs")

    register("Resample", resample_mod.resample, "Grid-to-grid nn/bilinear resample", "image_analysis",
             [], "image_analysis/resample.rs:68-71")
    register("Mosaic", resample_mod.mosaic, "Multi-source mosaic, first valid source wins", "image_analysis",
             [], "image_analysis/mosaic.rs:339-520")
    register("MosaicWithFeathering", resample_mod.mosaic_with_feathering,
             "Edge-distance-weighted overlap blend", "image_analysis",
             [], "image_analysis/mosaic_with_feathering.rs")
    register("AggregateRaster", resample_mod.aggregate_raster, "n x n block downsample", "gis_analysis",
             [], "gis_analysis/aggregate_raster.rs")
    register("ImageCorrelation", stats2.correlation, "Pearson r of two columns", "math_stat_analysis",
             [], "math_stat_analysis/image_correlation.rs")
    register("RootMeanSquareError", stats2.rmse, "RMSE of two columns", "math_stat_analysis",
             [], "math_stat_analysis/rmse.rs")
    register("CrossTabulation", stats2.cross_tabulation, "Contingency counts", "math_stat_analysis",
             [], "math_stat_analysis/cross_tabulation.rs")
    register("KappaIndex", stats2.kappa_index, "Cohen's kappa + accuracy", "math_stat_analysis",
             [], "math_stat_analysis/kappa_index.rs")
    register("TrendSurface", stats2.trend_surface, "Least-squares polynomial surface", "math_stat_analysis",
             [], "math_stat_analysis/trend_surface.rs")
    register("PrincipalComponentAnalysis", stats2.pca, "Covariance PCA + projection", "math_stat_analysis",
             [], "math_stat_analysis/principal_component_analysis.rs")
    register("RandomSample", stats2.random_sample, "Seeded deterministic Bernoulli sample", "math_stat_analysis",
             [], "math_stat_analysis/random_sample.rs")

    st3 = __import__("whitebox_tools_ray.stages.stats3", fromlist=["x"])
    register("Anova", st3.anova, "One-way ANOVA from per-group partials", "math_stat_analysis",
             [P("ds", "Dataset"), P("value_col", "String"), P("group_col", "String")],
             "math_stat_analysis/anova.rs:414-434")
    register("PairedSampleTTest", st3.paired_t_test, "Paired t-test on row differences", "math_stat_analysis",
             [], "math_stat_analysis/paired_sample_t_test.rs")
    register("TwoSampleKsTest", st3.two_sample_ks, "Two-sample K-S via distinct-value prefix scan",
             "math_stat_analysis", [], "math_stat_analysis/two_sample_ks_test.rs")
    register("KsTestForNormality", st3.ks_normality, "ECDF-vs-normal K-S test", "math_stat_analysis",
             [], "math_stat_analysis/ks_test_for_normality.rs")
    register("WilcoxonSignedRankTest", st3.wilcoxon_signed_rank,
             "Signed-rank test, average ranks + tie correction", "math_stat_analysis",
             [], "math_stat_analysis/wilcoxon_signed_rank_test.rs:360-430")
    register("CumulativeDistribution", st3.cumulative_distribution,
             "Per-row P(X<=x) (SQL cume_dist)", "math_stat_analysis",
             [], "math_stat_analysis/cumulative_dist.rs")
    register("ImageAutocorrelation", st3.image_autocorrelation, "Moran's I, rook contiguity",
             "math_stat_analysis", [], "math_stat_analysis/image_autocorrelation.rs")
    register("AttributeScattergram", st3.attribute_scattergram, "Paired-sample extraction",
             "math_stat_analysis", [], "math_stat_analysis/attribute_scattergram.rs")
    register("ImageRegression", stats2.regression, "OLS of one image/column on another",
             "math_stat_analysis", [], "math_stat_analysis/image_regression.rs")
    register("TrendSurfaceVectorPoints", stats2.trend_surface,
             "Least-squares polynomial surface of point z", "math_stat_analysis",
             [], "math_stat_analysis/trend_surface_vector_points.rs")

    bm = __import__("whitebox_tools_ray.stages.band_math", fromlist=["x"])
    register("MaxOverlay", lambda ls, sp: bm.overlay(ls, sp, "max"), "Per-cell max across stack",
             "gis_analysis", [], "gis_analysis/max_overlay.rs")
    register("MinOverlay", lambda ls, sp: bm.overlay(ls, sp, "min"), "Per-cell min across stack",
             "gis_analysis", [], "gis_analysis/min_overlay.rs")
    register("SumOverlay", lambda ls, sp: bm.overlay(ls, sp, "sum"), "Per-cell sum across stack",
             "gis_analysis", [], "gis_analysis/sum_overlay.rs")
    register("AverageOverlay", lambda ls, sp: bm.overlay(ls, sp, "average"), "Per-cell mean across stack",
             "gis_analysis", [], "gis_analysis/average_overlay.rs")
    register("WeightedSum", lambda ls, sp, w: bm.overlay(ls, sp, "weighted_sum", weights=w),
             "Weighted per-cell combine", "gis_analysis", [], "gis_analysis/weighted_sum.rs")
    register("HighestPosition", lambda ls, sp: bm.overlay(ls, sp, "highest_position"),
             "1-based argmax across stack", "gis_analysis", [], "gis_analysis/highest_pos.rs")
    register("LowestPosition", lambda ls, sp: bm.overlay(ls, sp, "lowest_position"),
             "1-based argmin across stack", "gis_analysis", [], "gis_analysis/lowest_pos.rs")
    register("CountIf", bm.count_if, "Per-cell equality count across stack",
             "gis_analysis", [], "gis_analysis/count_if.rs")
    register("MaxAbsoluteOverlay", lambda ls, sp: bm.overlay(ls, sp, "max_absolute"),
             "Signed value of max |v| across stack", "gis_analysis",
             [], "gis_analysis/max_absolute_overlay.rs")
    register("MinAbsoluteOverlay", lambda ls, sp: bm.overlay(ls, sp, "min_absolute"),
             "Signed value of min |v| across stack", "gis_analysis",
             [], "gis_analysis/min_absolute_overlay.rs")
    register("PercentEqualTo", lambda ls, cmp, sp: bm.compare_overlay(ls, cmp, sp, "eq"),
             "% of layers equal to comparison", "gis_analysis",
             [], "gis_analysis/percent_equal_to.rs")
    register("PercentGreaterThan", lambda ls, cmp, sp: bm.compare_overlay(ls, cmp, sp, "gt"),
             "% of layers greater than comparison", "gis_analysis",
             [], "gis_analysis/percent_greater_than.rs")
    register("PercentLessThan", lambda ls, cmp, sp: bm.compare_overlay(ls, cmp, sp, "lt"),
             "% of layers less than comparison", "gis_analysis",
             [], "gis_analysis/percent_less_than.rs")
    register("PickFromList", bm.pick_from_list, "Position raster selects stack layer",
             "gis_analysis", [], "gis_analysis/pick_from_list.rs")
    register("WeightedOverlay", bm.weighted_overlay,
             "Normalized weighted factor combine (cost inversion)", "gis_analysis",
             [], "gis_analysis/weighted_overlay.rs")
    pt = __import__("whitebox_tools_ray.stages.patch", fromlist=["x"])
    register("RasterArea", pt.raster_area, "Per-class cell area", "gis_analysis",
             [], "gis_analysis/raster_area.rs")
    register("Centroid", pt.centroid_raster, "Per-class centroid points", "gis_analysis",
             [], "gis_analysis/centroid.rs")
    register("RadiusOfGyration", pt.radius_of_gyration, "McGarigal GYRATE per class",
             "gis_analysis", [], "gis_analysis/radius_of_gyration.rs")
    register("FindPatchOrClassEdgeCells", pt.edge_cells, "Cells with a different 4-neighbour",
             "gis_analysis", [], "gis_analysis/find_patch_or_class_edge_cells.rs")
    register("EdgeProportion", pt.edge_proportion, "Per-class edge-cell share", "gis_analysis",
             [], "gis_analysis/edge_proportion.rs")
    register("NarrownessIndex", pt.narrowness_index, "A/(pi*MD^2) per class via EDT",
             "gis_analysis", [], "gis_analysis/narrowness_index.rs:17-25")
    register("ShapeComplexityIndexRaster", pt.shape_complexity_index_raster,
             "1 - A/Ah per class (hull of partial hulls)", "gis_analysis",
             [], "gis_analysis/shape_complexity_index_raster.rs")
    register("FindLowestOrHighestPoints", pt.find_lowest_or_highest_points,
             "Global argmin/argmax as points", "gis_analysis",
             [], "gis_analysis/find_lowest_or_highest_points.rs")
    gen = __import__("whitebox_tools_ray.stages.generate", fromlist=["x"])
    register("CreatePlane", gen.create_plane, "Tilted-plane raster generator", "gis_analysis",
             [], "gis_analysis/create_plane.rs")
    register("RandomField", gen.random_field, "Seeded i.i.d. normal field", "math_stat_analysis",
             [], "math_stat_analysis/random_field.rs")
    register("TurningBandsSimulation", gen.turning_bands,
             "Autocorrelated field via seeded cosine bands", "math_stat_analysis",
             [], "math_stat_analysis/turning_bands.rs")
    register("CreateRectangularVectorGrid", gen.create_rectangular_vector_grid,
             "Distributed fishnet polygons", "gis_analysis",
             [], "gis_analysis/create_rectangular_vector_grid.rs")
    register("CreateHexagonalVectorGrid", gen.create_hexagonal_vector_grid,
             "Distributed hex fishnet", "gis_analysis",
             [], "gis_analysis/create_hexagonal_vector_grid.rs")
    register("NormalizedDifferenceIndex", bm.normalized_difference, "(A-B)/(A+B) with 0/0 guard",
             "image_analysis", [], "image_analysis/normalized_difference_index.rs")
    fl = __import__("whitebox_tools_ray.stages.fill", fromlist=["x"])
    register("FillDepressions", fl.fill_depressions_ds, "Hierarchical priority-flood fill (Dataset-native, exact)",
             "hydro_analysis", [P("dem_ds", "Dataset"), P("spec", "SceneSpec")],
             "hydro_analysis/fill_depressions.rs (Barnes-style hierarchical)")
    register("DepthInSink", fl.depth_in_sink_ds, "Filled minus DEM inside depressions",
             "hydro_analysis", [P("dem_ds", "Dataset"), P("spec", "SceneSpec")],
             "hydro_analysis/depth_in_sink.rs")
    register("Sink", fl.sink_ds, "Labeled depressions (fill > dem, clumped)",
             "hydro_analysis", [P("dem_ds", "Dataset"), P("spec", "SceneSpec")],
             "hydro_analysis/sink.rs")
    vis = __import__("whitebox_tools_ray.stages.visibility", fromlist=["x"])
    register("Viewshed", vis.viewshed_ds,
             "Station line-of-sight visibility (azimuthal-sector decomposition)",
             "terrain_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("station_rc", "List")],
             "terrain_analysis/viewshed.rs")
    register("HorizonAngle", vis.horizon_angle_ds,
             "Max elevation angle along an azimuth ray (directional-halo gather)",
             "terrain_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("azimuth_deg", "Float"), P("max_dist", "Float")],
             "terrain_analysis/horizon_angle.rs")
    register("FetchAnalysis", vis.fetch_analysis_ds,
             "Distance to first obstruction along azimuth (directional-halo gather)",
             "terrain_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("azimuth_deg", "Float"), P("max_dist", "Float")],
             "terrain_analysis/fetch_analysis.rs")
    register("BreachDepressions", fl.breach_depressions_ds,
             "Pit-wise least-cost carve (Lindsay 2016); exact one-task kernel "
             "up to 16M cells, exact hierarchical sharded carve above "
             "(fill fallback only for pits no shard offset can localize)",
             "hydro_analysis",
             [P("dem_ds", "Dataset"), P("spec", "SceneSpec")],
             "hydro_analysis/breach_depressions.rs")

    # terrain_analysis
    register("Slope", focal.slope, "Horn slope degrees", "terrain_analysis", [], "terrain_analysis/slope.rs:256-292")
    register("Hillshade", focal.hillshade, "Horn hillshade", "terrain_analysis", [], "terrain_analysis/hillshade.rs")
    register("Aspect", focal.aspect, "Horn aspect degrees", "terrain_analysis", [], "terrain_analysis/aspect.rs:256-283")
    register("PlanCurvature", focal.plan_curvature, "Plan curvature deg*100", "terrain_analysis",
             [], "terrain_analysis/plan_curvature.rs:276-297")
    register("RuggednessIndex", focal.ruggedness, "Riley TRI", "terrain_analysis",
             [], "terrain_analysis/ruggedness_index.rs")
    t2 = __import__("whitebox_tools_ray.stages.terrain2", fromlist=["x"])
    register("ProfileCurvature", t2.prof_curvature, "Profile curvature deg*100", "terrain_analysis",
             [], "terrain_analysis/prof_curvature.rs:285-300")
    register("TangentialCurvature", t2.tan_curvature, "Tangential curvature deg*100", "terrain_analysis",
             [], "terrain_analysis/tan_curvature.rs:277-290")
    register("TotalCurvature", t2.total_curvature, "Total curvature deg*100", "terrain_analysis",
             [], "terrain_analysis/total_curvature.rs:267-271")
    register("RelativeAspect", t2.relative_aspect, "Aspect distance from azimuth", "terrain_analysis",
             [], "terrain_analysis/relative_aspect.rs")
    register("NumDownslopeNeighbours", t2.num_downslope_neighbours, "Count of lower 8-neighbours",
             "terrain_analysis", [], "terrain_analysis/num_downslope_neighbours.rs")
    register("NumUpslopeNeighbours", t2.num_upslope_neighbours, "Count of higher 8-neighbours",
             "terrain_analysis", [], "terrain_analysis/num_upslope_neighbours.rs")
    register("MaxDownslopeElevChange", t2.max_downslope_elev_change, "Max drop to lower neighbour",
             "terrain_analysis", [], "terrain_analysis/max_downslope_elev_change.rs:228-234")
    register("MinDownslopeElevChange", t2.min_downslope_elev_change, "Min drop to lower neighbour",
             "terrain_analysis", [], "terrain_analysis/min_downslope_elev_change.rs")
    register("FindRidges", t2.find_ridges, "Lower N+S or E+W neighbours", "terrain_analysis",
             [], "terrain_analysis/find_ridges.rs")
    register("SurfaceAreaRatio", t2.surface_area_ratio, "Jenness 8-triangle surface/planar area",
             "terrain_analysis", [], "terrain_analysis/surface_area_ratio.rs")
    register("CircularVarianceOfAspect", t2.circular_variance_of_aspect,
             "1 - mean resultant length of windowed aspect", "terrain_analysis",
             [], "terrain_analysis/circular_variance_of_aspect.rs")
    register("StandardDeviationOfSlope", t2.stdev_of_slope, "Window sigma of Horn slope",
             "terrain_analysis", [], "terrain_analysis/standard_deviation_of_slope.rs")
    register("EdgeDensity", t2.edge_density, "Window proportion of slope-break cells",
             "terrain_analysis", [], "terrain_analysis/edge_density.rs")
    register("PennockLandformClass", t2.pennock_landform_class, "7-class slope/curvature landform",
             "terrain_analysis", [], "terrain_analysis/pennock_landform_class.rs:43-54")
    register("StreamPowerIndex", t2.stream_power_index, "ln(SCA^p * tan slope)", "terrain_analysis",
             [], "terrain_analysis/relative_stream_power_index.rs")
    register("WetnessIndex", t2.wetness_index, "ln(SCA / tan slope)", "terrain_analysis",
             [], "terrain_analysis/wetness_index.rs")
    register("SedimentTransportIndex", t2.sediment_transport_index,
             "(n+1)(SCA/22.13)^n (sin b/0.0896)^m", "terrain_analysis",
             [], "terrain_analysis/sediment_transport_index.rs")
    register("ElevAbovePit", t2.elev_above_pit, "z - z(flowpath terminal pit)", "terrain_analysis",
             [], "terrain_analysis/elev_above_pit.rs")
    t3 = __import__("whitebox_tools_ray.stages.terrain3", fromlist=["x"])
    register("MaxElevationDeviation", t3.max_elevation_deviation,
             "Scale-maximal |DEV| + scale layer", "terrain_analysis",
             [], "terrain_analysis/max_elevation_deviation.rs")
    register("MaxElevDevSignature", t3.max_elev_dev_signature,
             "DEV(scale) curve at probe points", "terrain_analysis",
             [], "terrain_analysis/max_elev_dev_signature.rs")
    register("MultiscaleRoughness", t3.multiscale_roughness,
             "Scale-maximal normal dispersion", "terrain_analysis",
             [], "terrain_analysis/multiscale_roughness.rs")
    register("MultiscaleRoughnessSignature", t3.multiscale_roughness_signature,
             "Roughness(scale) curve at probe points", "terrain_analysis",
             [], "terrain_analysis/multiscale_roughness_signature.rs")
    register("MultiscaleStdDevNormals", t3.multiscale_std_dev_normals,
             "Spherical sigma of normals over scales", "terrain_analysis",
             [], "terrain_analysis/multiscale_std_dev_normals.rs")
    register("MultiscaleStdDevNormalsSignature", t3.multiscale_std_dev_normals_signature,
             "Normal-sigma(scale) curve at points", "terrain_analysis",
             [], "terrain_analysis/multiscale_std_dev_normals_signature.rs")
    register("MaxAnisotropyDev", t3.max_anisotropy_dev,
             "Directional DEV dispersion over scales", "terrain_analysis",
             [], "terrain_analysis/max_anisotropy_dev.rs")
    register("MaxAnisotropyDevSignature", t3.max_anisotropy_dev_signature,
             "Anisotropy(scale) curve at points", "terrain_analysis",
             [], "terrain_analysis/max_anisotropy_dev_signature.rs")
    register("SphericalStdDevOfNormals", t3.spherical_std_dev_of_normals,
             "sqrt(-2 ln Rbar) of windowed normals (deg)", "terrain_analysis",
             [], "terrain_analysis/spherical_std_dev_of_normals.rs")
    register("AverageNormalVectorAngularDeviation",
             t3.average_normal_vector_angular_deviation,
             "Mean angle to the window-mean normal", "terrain_analysis",
             [], "terrain_analysis/average_normal_vector_angular_deviation.rs")
    register("MultiscaleTopographicPositionImage",
             t3.multiscale_topographic_position_image,
             "RGB composite of broad/meso/local DEV", "terrain_analysis",
             [], "terrain_analysis/multiscale_topographic_position_image.rs")

    # hydro_analysis
    dmod = __import__("whitebox_tools_ray.stages.distance", fromlist=["x"])
    register("EuclideanAllocation", dmod.euclidean_allocation_ds,
             "Nearest-target value via the exact separable feature transform", "gis_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec")],
             "gis_analysis/euclidean_allocation.rs")
    register("BufferRaster", dmod.buffer_raster, "Cells within distance of nonzero targets",
             "gis_analysis", [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("size", "Float")],
             "gis_analysis/buffer_raster.rs")
    register("ReclassEqualInterval", stats.reclass_equal_interval,
             "Floor-to-interval-bin reclass", "math_stat_analysis",
             [], "math_stat_analysis/reclass_equal_interval.rs")
    register("ReclassFromFile", stats.reclass_from_file, "Range LUT parsed from text",
             "math_stat_analysis", [], "math_stat_analysis/reclass_from_file.rs")
    register("EuclideanDistance", dmod.euclidean_distance_ds,
             "Exact EDT, Dataset-native two-pass strips", "gis_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec")],
             "gis_analysis/euclidean_distance.rs:23-33 (exact-EDT substitute)")
    register("ExtractStreams", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).extract_streams_ds,
             "Accumulation threshold -> stream mask (Dataset-native)", "stream_network_analysis",
             [], "stream_network_analysis/extract_streams.rs")
    register("StreamLinkIdentifier", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).stream_links_ds,
             "Junction-to-junction link ids (stream-cell table only to the driver)",
             "stream_network_analysis", [], "stream_network_analysis/stream_link_id.rs")
    register("StreamLinkTable", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).links_table_ds,
             "Link identification with the link table kept as a Dataset "
             "(continental-scale networks; pair with StrahlerOrderLinksDS)",
             "stream_network_analysis", [], "stream_network_analysis/stream_link_id.rs")
    register("StrahlerOrderLinksDS", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).strahler_order_links_ds,
             "Strahler order by topological peel over the Dataset link DAG",
             "stream_network_analysis", [], "stream_network_analysis/strahler_order.rs")
    register("ShreveMagnitudeLinksDS", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).shreve_magnitude_links_ds,
             "Shreve magnitude by topological peel over the Dataset link DAG",
             "stream_network_analysis", [], "stream_network_analysis/shreve_magnitude.rs")
    register("StrahlerStreamOrder", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).strahler_order,
             "Strahler order on the link DAG", "stream_network_analysis", [], "stream_network_analysis/strahler_order.rs")
    register("ShreveStreamMagnitude", __import__("whitebox_tools_ray.stages.streams", fromlist=["x"]).shreve_magnitude,
             "Shreve magnitude on the link DAG", "stream_network_analysis", [], "stream_network_analysis/shreve_magnitude.rs")
    st = __import__("whitebox_tools_ray.stages.streams", fromlist=["x"])
    register("HortonStreamOrder", st.horton_order, "Horton order (trunk carries outlet order)",
             "stream_network_analysis", [], "stream_network_analysis/horton_order.rs")
    register("HackStreamOrder", st.hack_order, "Hack order (main stream = 1)",
             "stream_network_analysis", [], "stream_network_analysis/hack_order.rs")
    register("TopologicalStreamOrder", st.topological_order, "Links-from-outlet order",
             "stream_network_analysis", [], "stream_network_analysis/topological_stream_order.rs:16-19")
    register("StreamLinkSlope", st.stream_link_slope_ds, "Per-link gradient (z drop / length)",
             "stream_network_analysis", [], "stream_network_analysis/stream_link_slope.rs")
    register("StreamLinkLength", lambda links: {lk["link_id"]: lk["length"] for lk in links},
             "Per-link channel length", "stream_network_analysis", [], "stream_network_analysis/stream_link_length.rs")
    register("LengthOfUpstreamChannels", st.length_of_upstream_channels,
             "Total upstream channel length per link", "stream_network_analysis",
             [], "stream_network_analysis/total_length_channels.rs")
    register("DistanceToOutlet", st.distance_to_outlet_ds, "Flow-path distance to outlet per stream cell",
             "stream_network_analysis", [], "stream_network_analysis/dist_to_outlet.rs")
    register("FarthestChannelHead", st.farthest_channel_head_ds, "Max upstream channel distance per stream cell",
             "stream_network_analysis", [], "stream_network_analysis/farthest_channel_head.rs")
    register("FindMainStem", st.find_main_stem, "Trunk links from each outlet",
             "stream_network_analysis", [], "stream_network_analysis/find_main_stem.rs")
    register("TributaryIdentifier", st.tributary_identifier, "Tributary ids (trunk continuation)",
             "stream_network_analysis", [], "stream_network_analysis/tributary_id.rs")
    register("RemoveShortStreams", st.remove_short_streams, "Drop short headwater links",
             "stream_network_analysis", [], "stream_network_analysis/remove_short_streams.rs")
    register("StreamLinkClass", st.stream_link_class, "Exterior/interior link classes",
             "stream_network_analysis", [], "stream_network_analysis/stream_link_class.rs")
    register("MaxBranchLength", st.max_branch_length, "Longest channel path through each link",
             "terrain_analysis", [], "terrain_analysis/max_branch_length.rs (link form)")
    register("RasterStreamsToVector", st.raster_streams_to_vector_ds,
             "Link runs -> polylines (FID = link id), fully distributed",
             "stream_network_analysis", [], "stream_network_analysis/raster_streams_to_vector.rs")
    h2 = __import__("whitebox_tools_ray.stages.hydro2", fromlist=["x"])
    register("Basins", __import__("whitebox_tools_ray.stages.basins", fromlist=["x"]).basins_ds,
             "Terminal labeling, Dataset-native border condensation", "hydro_analysis",
             [P("pointer_ds", "Dataset"), P("spec", "SceneSpec")], "hydro_analysis/basins.rs")
    register("Watershed", __import__("whitebox_tools_ray.stages.basins", fromlist=["x"]).watershed_ds,
             "Pour-point catchments, Dataset-native", "hydro_analysis",
             [P("pointer_ds", "Dataset"), P("spec", "SceneSpec"), P("pour_points", "List")],
             "hydro_analysis/watershed.rs")
    co = __import__("whitebox_tools_ray.stages.cost", fromlist=["x"])
    register("CostDistance", co.cost_distance_ds, "Weighted Dijkstra accumulated cost, Dataset-native BSP",
             "gis_analysis", [P("cost_ds", "Dataset"), P("source_ds", "Dataset"), P("spec", "SceneSpec")],
             "gis_analysis/cost_distance.rs")
    register("CostAllocation", co.cost_allocation_ds,
             "Nearest-source id by accumulated cost (Dataset-native BSP, ids ride border frames)",
             "gis_analysis", [], "gis_analysis/cost_allocation.rs")
    register("CostPathway", co.cost_pathway_ds,
             "Least-cost path trace over a backlink tile Dataset "
             "(store-actor shards; only path tiles are fetched)",
             "gis_analysis", [], "gis_analysis/cost_pathway.rs")
    register("CostBacklink", co.cost_backlink_ds,
             "Backlink direction raster from the BSP cost engine",
             "gis_analysis", [], "gis_analysis/cost_distance.rs")
    ba = __import__("whitebox_tools_ray.stages.basins", fromlist=["x"])
    register("DownslopeDistanceToStream", ba.downslope_distance_to_stream_ds,
             "Flow-path length to nearest stream (additive pointer doubling)", "hydro_analysis",
             [], "hydro_analysis/downslope_distance_to_stream.rs")
    register("ElevationAboveStream", h2.elevation_above_stream_ds,
             "z minus z of first downstream stream cell", "hydro_analysis",
             [], "hydro_analysis/elevation_above_stream.rs")
    register("SnapPourPoints", h2.snap_pour_points_ds, "Snap points to max accumulation in radius (broadcast probe)",
             "hydro_analysis", [], "hydro_analysis/snap_pour_points.rs")
    register("NumInflowingNeighbours", lambda tiles_ds, spec: focal.focal_op(tiles_ds, spec, __import__("whitebox_tools_ray.stages.flow", fromlist=["x"])._num_inflowing_kernel, 1, out_fmt="i8"),
             "Count of D8 neighbors flowing in", "hydro_analysis", [], "hydro_analysis/num_inflowing_neighbours.rs; d8_flow_accum.rs:343-397")
    register("MergeVectors", lambda a, b: a.union(b), "Concat layers (schema-aligned union)",
             "data_tools", [], "data_tools/merge_vectors.rs")
    register("ExportTableToCsv", lambda ds, path: ds.write_csv(path), "Dump a table to CSV",
             "data_tools", [], "data_tools/export_table_to_csv.rs")
    register("CsvPointsToVector", lambda path, **kw: __import__("ray.data", fromlist=["x"]).read_csv(path, **kw),
             "CSV -> point table", "data_tools", [], "data_tools/csv_points_to_vector.rs")
    st2 = __import__("whitebox_tools_ray.stages.stretch", fromlist=["x"])

    def _elev_rel_minmax(tiles_ds):
        lo, hi = st2._pixel_minmax(tiles_ds)
        span = (hi - lo) or 1.0
        return st2._remap_tiles(tiles_ds, lambda g: (g - lo) / span)

    register("ElevRelativeToMinMax", _elev_rel_minmax, "(z-min)/(max-min) over the scene",
             "terrain_analysis", [], "terrain_analysis/elev_relative_to_min_max.rs")

    def _find_no_flow(tiles_ds, spec):
        import pyarrow as _pa

        from .kernels import codecs as _c

        def fn(batch):
            blobs = []
            for i in range(batch.num_rows):
                g = _c.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                blobs.append(_c.encode_tile((g == -1.0).astype(np.float64), "f32"))
            t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", _pa.array(blobs, _pa.binary()))
            return t.set_column(t.schema.get_field_index("fmt"), "fmt", _pa.array(["f32"] * t.num_rows))

        return tiles_ds.map_batches(fn, batch_format="pyarrow", batch_size=16)

    register("FindNoFlowCells", _find_no_flow, "Mask of pointer==-1 cells", "hydro_analysis",
             [], "hydro_analysis/find_noflow_cells.rs")
    register("D8Pointer", flow.d8_pointer_masked, "Steepest-drop D8 direction", "hydro_analysis",
             [], "hydro_analysis/d8_pointer.rs; d8_flow_accum.rs:261-321")
    register("D8FlowAccumulation", flow.flow_accumulation_ds, "Dataset-native BSP topological accumulation",
             "hydro_analysis", [P("pointer_ds", "Dataset"), P("spec", "SceneSpec")],
             "hydro_analysis/d8_flow_accum.rs:399-431")
    fl2 = __import__("whitebox_tools_ray.stages.flow2", fromlist=["x"])
    register("FD8FlowAccumulation", fl2.fd8_flow_accumulation,
             "Freeman multi-direction accumulation (fractions ~ slope^p)", "hydro_analysis",
             [P("dem_ds", "Dataset"), P("spec", "SceneSpec")], "hydro_analysis/fd8_flow_accum.rs")
    register("DInfFlowAccumulation", fl2.dinf_flow_accumulation,
             "Tarboton D-infinity facet-split accumulation", "hydro_analysis",
             [P("dem_ds", "Dataset"), P("spec", "SceneSpec")], "hydro_analysis/dinf_flow_accum.rs")
    register("DInfPointer", fl2.dinf_pointer, "D-infinity flow angle (degrees)", "hydro_analysis",
             [], "hydro_analysis/dinf_pointer.rs")
    register("FD8Pointer", fl2.fd8_pointer, "Bitfield of receiving neighbours", "hydro_analysis",
             [], "hydro_analysis/fd8_pointer.rs:227")
    register("Rho8Pointer", fl2.rho8_pointer, "D8 with randomized diagonal distance (seeded)",
             "hydro_analysis", [], "hydro_analysis/rho8_pointer.rs:253-263")
    register("D8MassFlux", fl2.d8_mass_flux, "(acc - absorption)*efficiency routed by D8",
             "hydro_analysis", [], "hydro_analysis/d8_mass_flux.rs:463-465")
    register("DInfMassFlux", fl2.dinf_mass_flux, "(acc - absorption)*efficiency routed by D-inf",
             "hydro_analysis", [], "hydro_analysis/dinf_mass_flux.rs")
    register("MaxUpslopeFlowpathLength", fl2.max_upslope_flowpath_length,
             "Longest upstream flowpath per cell", "hydro_analysis",
             [], "hydro_analysis/max_upslope_flowpath.rs")
    register("AverageUpslopeFlowpathLength", fl2.average_upslope_flowpath_length,
             "Path-count-weighted mean upstream flowpath", "hydro_analysis",
             [], "hydro_analysis/average_upslope_flowpath_length.rs")
    register("TraceDownslopeFlowpaths", fl2.trace_downslope_flowpaths,
             "Mark D8 paths downstream of seed cells", "hydro_analysis",
             [], "hydro_analysis/trace_downslope_flowpaths.rs")
    register("FillSingleCellPits", fl2.fill_single_cell_pits, "Raise 1-cell pits to lowest neighbour",
             "hydro_analysis", [], "hydro_analysis/fill_single_cell_pits.rs")
    register("BreachSingleCellPits", fl2.breach_single_cell_pits, "Lower walls next to 1-cell pits",
             "hydro_analysis", [], "hydro_analysis/breach_single_cell_pits.rs")
    register("FindParallelFlow", fl2.find_parallel_flow, "Cells sharing a neighbour's D8 direction",
             "hydro_analysis", [], "hydro_analysis/find_parallel_flow.rs")
    register("FlowAccumulationFullWorkflow", fl2.flow_accumulation_full_workflow,
             "fill -> pointer -> accumulation composition", "hydro_analysis",
             [], "hydro_analysis/flow_accum_full_workflow.rs")
    register("JensonSnapPourPoints", fl2.jenson_snap_pour_points,
             "Snap outlets to nearest stream cell in radius", "hydro_analysis",
             [], "hydro_analysis/jenson_snap_pour_points.rs")
    register("Subbasins", fl2.subbasins, "Watershed against the stream-link target grid",
             "hydro_analysis", [], "hydro_analysis/subbasins.rs")
    register("StrahlerOrderBasins", fl2.strahler_order_basins,
             "Subbasins relabeled link -> Strahler order", "hydro_analysis",
             [], "hydro_analysis/strahler_order_basins.rs")
    register("DownslopeFlowpathLength", h2.downslope_flowpath_length,
             "Accumulated step length to the flowpath terminal", "hydro_analysis",
             [], "hydro_analysis/downslope_flowpath_length.rs")
    register("AverageFlowpathSlope", h2.average_flowpath_slope,
             "(z - z_terminal)/L per cell", "hydro_analysis",
             [], "hydro_analysis/average_flowpath_slope.rs")
    register("FlowLengthDiff", h2.flow_length_diff,
             "Abrupt neighbour changes in flowpath length", "hydro_analysis",
             [], "hydro_analysis/flow_length_diff.rs")
    register("LongestFlowpath", h2.longest_flowpath,
             "Per-basin max head-cell flowpath length", "hydro_analysis",
             [], "hydro_analysis/longest_flowpath.rs")
    register("ElevationAboveStreamEuclidean", h2.elevation_above_stream_euclidean,
             "z - z of the euclidean-nearest stream cell", "hydro_analysis",
             [], "hydro_analysis/elevation_above_stream_euclidean.rs")
    register("FillBurn", h2.fill_burn, "Burn streams then priority-flood fill",
             "hydro_analysis", [], "hydro_analysis/fill_burn.rs")
    register("RaiseWalls", h2.raise_walls, "Add wall height where wall raster > 0",
             "hydro_analysis", [], "hydro_analysis/raise_walls.rs")
    register("BurnStreamsAtRoads", h2.burn_streams_at_roads,
             "Lower the DEM at stream-road crossings", "hydro_analysis",
             [], "hydro_analysis/burn_streams_at_roads.rs")
    register("FlattenLakes", h2.flatten_lakes, "Lake cells take the per-lake min z",
             "hydro_analysis", [], "hydro_analysis/flatten_lakes.rs")
    register("FloodOrder", h2.flood_order, "Rank of the filled surface (pop order)",
             "hydro_analysis", [], "hydro_analysis/flood_order.rs")
    register("UnnestBasins", h2.unnest_basins, "One watershed layer per nesting level",
             "hydro_analysis", [], "hydro_analysis/unnest_basins.rs")
    register("Hillslopes", h2.hillslopes, "Subbasin x3 + left/right/stream side",
             "hydro_analysis", [], "hydro_analysis/hillslopes.rs")
    register("ExtractValleys", h2.extract_valleys, "Higher N+S or E+W neighbours",
             "stream_network_analysis", [], "stream_network_analysis/extract_valleys.rs")
    register("StreamSlopeContinuous", h2.stream_slope_continuous,
             "Per-stream-cell slope along the D8 direction", "stream_network_analysis",
             [], "stream_network_analysis/stream_slope_continuous.rs")
    register("LongProfile", h2.long_profile, "Per-link (distance, z) rows",
             "stream_network_analysis", [], "stream_network_analysis/long_profile.rs")
    register("LongProfileFromPoints", lambda dem, spec, line, **kw: h2.profile(dem, spec, line, **kw),
             "Profile traced from points", "stream_network_analysis",
             [], "stream_network_analysis/long_profile_from_points.rs")
    register("Profile", h2.profile, "z sampled along a polyline", "terrain_analysis",
             [], "terrain_analysis/profile.rs")
    register("SlopeVsElevationPlot", h2.slope_vs_elevation_plot,
             "2-D slope/elevation histogram table", "terrain_analysis",
             [], "terrain_analysis/slope_vs_elev_plot.rs")
    register("ElevRelativeToWatershedMinMax", h2.elev_relative_to_watershed_min_max,
             "(z - basin min)/(basin range)", "terrain_analysis",
             [], "terrain_analysis/elev_relative_to_watershed_min_max.rs")
    register("StochasticDepressionAnalysis", h2.stochastic_depression_analysis,
             "pdep over K seeded error realizations", "hydro_analysis",
             [], "hydro_analysis/stochastic_depression_analysis.rs")
    register("RemoveOffTerrainObjects", h2.remove_off_terrain_objects,
             "Opening-based off-terrain removal", "terrain_analysis",
             [], "terrain_analysis/remove_off_terrain_objects.rs")
    register("FeaturePreservingSmoothing", h2.feature_preserving_smoothing,
             "Edge-preserving z smoothing (bilateral form)", "terrain_analysis",
             [], "terrain_analysis/feature_preserving_smoothing.rs")
    register("FillMissingData", h2.fill_missing_data,
             "Nearest-valid allocation + masked smoothing", "terrain_analysis",
             [], "terrain_analysis/fill_missing_data.rs")
    register("DownslopeIndex", h2.downslope_index,
             "atan(drop/L) via BSP cursor walks", "terrain_analysis",
             [], "terrain_analysis/downslope_index.rs")
    register("Isobasins", h2.isobasins,
             "Watershed against accumulation volume classes", "hydro_analysis",
             [], "hydro_analysis/isobasins.rs")
    register("ImpoundmentSizeIndex", h2.impoundment_size_index,
             "n(z+h) - sum(z upstream), clipped (documented approximation)",
             "hydro_analysis", [], "hydro_analysis/impoundment_size_index.rs")
    register("DirectionalRelief", vis.directional_relief_ds,
             "Mean along-azimuth elevation minus z (directional-halo gather)",
             "terrain_analysis",
             [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("azimuth_deg", "Float"), P("max_dist", "Float")],
             "terrain_analysis/directional_relief.rs:20-27")
    register("VisibilityIndex", vis.visibility_index_ds,
             "Share of sampled stations seeing each cell (broadcast DEM, station-parallel)",
             "terrain_analysis", [P("tiles_ds", "Dataset"), P("spec", "SceneSpec")],
             "terrain_analysis/visibility_index.rs")
    im2 = __import__("whitebox_tools_ray.stages.image2", fromlist=["x"])
    register("ChangeVectorAnalysis", im2.change_vector_analysis,
             "Change magnitude + sector code", "image_analysis",
             [], "image_analysis/change_vector_analysis.rs")
    register("CorrectVignetting", im2.correct_vignetting,
             "v / cos^n(atan(d/f)) radial correction", "image_analysis",
             [], "image_analysis/correct_vignetting.rs")
    register("PanchromaticSharpening", im2.panchromatic_sharpening,
             "Brovey / IHS pan-sharpening", "image_analysis",
             [], "image_analysis/panchromatic_sharpening.rs")
    register("ImageStackProfile", im2.image_stack_profile,
             "Per-point values across a layer stack", "image_analysis",
             [], "image_analysis/image_stack_profile.rs")
    register("WriteFunctionMemoryInsertion", im2.write_function_memory_insertion,
             "2-3 date RGB composite", "image_analysis",
             [], "image_analysis/write_function_memory_insertion.rs")
    register("ModifiedKMeansClustering", im2.modified_k_means,
             "k-means with small-cluster merging", "image_analysis",
             [], "image_analysis/modified_k_means_clustering.rs")

    # HTML report surface (reference emits styled HTML+SVG from its
    # stats tools — src/rendering/html.rs + get_svg chart builders)
    from . import reporting as _rep

    register("HistogramReport", _rep.histogram_report,
             "Distributed histogram -> HTML page with SVG chart",
             "math_stat_analysis", [], "rendering/html.rs; rendering/histogram.rs")

    # training-data pipeline value-add (no reference analog)
    register("ExactDedup", dedup.exact_dedup, "Content-hash dedup", "training_data", [], "")
    register("MinHashLSH", dedup.minhash_lsh_pairs, "MinHash-LSH near-dup candidates", "training_data", [], "")
    register("SimHashDedup", dedup.simhash_dedup, "SimHash near-dup pairs", "training_data", [], "")
    register("NgramJaccardPairs", dedup.ngram_jaccard_pairs, "Exact n-gram Jaccard near-dup pairs", "training_data", [], "")
    register("EmbeddingNearDup", dedup.embedding_near_dup, "Cosine near-dup pairs", "training_data", [], "")
    register("BruteForceTopK", ann.brute_force_topk, "Exact cosine top-k", "training_data", [], "")
    register("LshTopK", ann.lsh_bucket_topk, "LSH-bucketed approx top-k", "training_data", [], "")
    register("IvfTopK", ann.ivf_topk, "IVF (coarse-quantizer) approx top-k", "training_data", [], "")
    register("LangId", text.lang_id, "Heuristic language ID", "training_data", [], "")
    register("QualityScore", text.quality_score, "Text quality features", "training_data", [], "")
    register("TokenCount", text.token_count, "Token counting", "training_data", [], "")
    register("Fingerprint", text.fingerprint, "Rolling-hash fingerprint", "training_data", [], "")
    register("TumblingWindow", windows.tumbling, "Fixed windows", "training_data", [], "")
    register("SlidingWindow", windows.sliding, "Overlapping windows", "training_data", [], "")
    register("SessionWindow", windows.session, "Gap sessionization", "training_data", [], "")
    register("DecodeImage", multimodal.decode_images, "Image decode + features", "training_data", [], "")
    register("ResizeImage", multimodal.resize_images, "Block-mean resize", "training_data", [], "")
    register("SampleFrames", multimodal.sample_frames, "Video frame sampling (real for MJPEG AVI)", "training_data", [], "")
    register("AudioFeatures", multimodal.audio_features, "WAV audio features (RMS/ZCR/peak/windows)", "training_data", [], "")

    # front-door file formats (pure-numpy codecs, Dataset-level sources)
    from .sources import formats as fio

    register("ReadLas", fio.read_las, "LAS 1.0-1.4 point formats 0-10 -> point Dataset",
             "io", [P("paths", "FileOrDir")], "lidar/las.rs")
    register("WriteLas", fio.write_las, "Point Dataset -> .las per block",
             "io", [P("ds", "Dataset"), P("out_dir", "Directory")], "lidar/las.rs")
    register("ReadShapefile", fio.read_shapefile, "SHP+DBF -> vector Dataset (parts/xs/ys + attributes)",
             "io", [P("shp_path", "File")], "vector/shapefile/mod.rs")
    register("WriteShapefile", fio.write_shapefile, "Records + attributes -> SHP+DBF pair",
             "io", [P("records", "List"), P("shp_path", "File"), P("shape_type", "Int")],
             "vector/shapefile/mod.rs")
    register("ReadGeoTiff", fio.read_geotiff_tiles, "GeoTIFF(s) -> engine tile table + metas",
             "io", [P("paths", "FileOrDir")], "raster/geotiff/mod.rs")
    register("WriteGeoTiff", fio.write_geotiff, "Tile table -> one GeoTIFF sheet",
             "io", [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("out_path", "File")],
             "raster/geotiff/mod.rs")
    register("ReadRasterGrid", fio.read_raster_grid,
             "Legacy grid raster(s) (Arc ASCII/flt, GRASS, Idrisi, SAGA, "
             "Surfer 7/ASCII, Whitebox dep/tas) -> engine tile table + metas",
             "io", [P("paths", "FileOrDir")], "raster/mod.rs:126-182")
    register("WriteRasterGrid", fio.write_raster_grid,
             "Tile table -> one legacy grid raster (format by extension)",
             "io", [P("tiles_ds", "Dataset"), P("spec", "SceneSpec"), P("out_path", "File")],
             "raster/mod.rs:1030-1097")


_register_all()
