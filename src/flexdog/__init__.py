"""flexdog: behavioral simulator of an analog Difference-of-Gaussian
accelerator built from flexible thin-film-transistor Gilbert Gaussian cells.

Layers:

- flexdog.dog      digital DoG oracle, the shared correlation primitive, op counts
- flexdog.cell     Gilbert Gaussian cell model, weight programming, deviation
- flexdog.pipeline analog signal chain with process variation and ADC
- flexdog.perf     power / runtime / energy accounting
- flexdog.imageio  IDX, PGM, built-in patterns
- flexdog.cli      `flexdog` command-line tool
"""

__version__ = "0.1.0"

# The names the demos and the acceptance suite use; the rest are imported from their modules.
from .cell import CellParams, cell_response, program_kernel, sweep_deviation, weight_to_dv
from .dog import IntensityImage, convolve_valid, dog, make_gaussian_kernel, op_count
from .perf import PerfSpec, energy, power, realtime_check, runtime
from .pipeline import (
    AdcSpec,
    AnalogConfig,
    VariationModel,
    edge_map,
    monte_carlo,
    quantize,
    run_dog_pipeline,
)
