"""The benchmark's metric catalogue.  BENCHMARK.json lists the same metrics;
a test keeps the two in step.

Layers are the program's modules.  For each per-layer metric, MOVES names the
end-to-end metric and workload it is expected to move, written down before
any optimisation is measured.
"""

LAYERS = ("pipeline", "cell", "dog", "perf", "imageio", "cli")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("frames_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Spans whose self time and calls per op are reported.
TRACED_FUNCTIONS = (
    "pipeline.draw_variation",
    "pipeline.sense",
    "pipeline.analog_convolve",
    "pipeline.to_voltage",
    "pipeline.quantize",
    "pipeline.saturation_count",
    "pipeline.edge_map",
    "pipeline.run_dog_pipeline",
    "pipeline.monte_carlo",
    "cell.cell_response",
    "cell.program_kernel",
    "dog.dog",
    "dog.correlate_valid",
    "perf.build_report",
    "imageio.load_idx_image",
    "imageio.read_pgm",
    "imageio.write_pgm",
    "imageio.codes_to_gray",
    "cli.main",
    "cli.write_json",
)

_PER_PIXEL = "frames_per_s on frame_1024 and mc_256_split"
_MC = "frames_per_s (trials) on mc_28 and mc_256_split, frames_per_s on frame_1024"
_IO = "frames_per_s and op_ms_p50 on cli_28 only"
_IMPORT = "op_ms_p50 on cli_28, setup_s on every workload"

MOVES = {
    "pipeline.draw_variation": _PER_PIXEL,
    "pipeline.sense": _PER_PIXEL,
    "pipeline.analog_convolve": _PER_PIXEL,
    "pipeline.to_voltage": _PER_PIXEL,
    "pipeline.quantize": _PER_PIXEL,
    "pipeline.saturation_count": _PER_PIXEL,
    "pipeline.edge_map": "frames_per_s (trials) on mc_28 and mc_256_split",
    "pipeline.run_dog_pipeline": "frames_per_s (trials) on mc_28",
    "pipeline.monte_carlo": "frames_per_s (trials) on mc_28",
    "cell.cell_response": _MC,
    "cell.program_kernel": _MC,
    "cell.import_scipy_s": _IMPORT,
    "cli.import_s": _IMPORT,
    "dog.dog": _MC,
    "dog.correlate_valid": _MC,
    "perf.build_report": "frames_per_s (trials) on mc_28",
    "imageio": _IO,
    "cli": "frames_per_s and op_ms_p50 on cli_28",
    "trace.overhead_ratio": "none; tracing cost, end-to-end figures come from untraced runs",
}


def moves(metric):
    """Expected effect of a per-layer metric, looked up by its longest prefix."""
    if metric.endswith(".errors"):
        return "none; error counts must stay 0"
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        key = ".".join(parts[:n])
        if key in MOVES:
            return MOVES[key]
    raise KeyError(metric)


def per_layer():
    """[(name, unit, better)] of every per-layer metric."""
    out = []
    for fn in TRACED_FUNCTIONS:
        out.append((f"{fn}.self_s", "s", "lower"))
        out.append((f"{fn}.calls", "count", "lower"))
    out += [
        ("cell.cell_response.elems", "count", "lower"),
        ("cell.cell_response.elems_per_mac", "ratio", "lower"),
        ("dog.correlate_valid.macs", "count", "lower"),
        ("dog.dog.calls_per_trial", "ratio", "lower"),
        ("imageio.bytes_read", "B", "lower"),
        ("imageio.bytes_written", "B", "lower"),
        ("cell.import_scipy_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out
