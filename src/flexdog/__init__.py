"""flexdog: behavioral simulator of an analog Difference-of-Gaussian
accelerator built from flexible thin-film-transistor Gilbert Gaussian cells.

Layers:

- flexdog.dog      bit-exact digital DoG reference and op-count model
- flexdog.cell     Gilbert Gaussian cell model, weight programming, deviation
- flexdog.pipeline analog signal chain with process variation and ADC
- flexdog.perf     power / runtime / energy accounting
- flexdog.imageio  IDX, PGM, built-in patterns
- flexdog.cli      `flexdog` command-line tool
"""

__version__ = "0.1.0"

from .cell import (
    CellParams,
    DeviationReport,
    ProgrammedKernel,
    SigmoidProductParams,
    cell_factors,
    cell_response,
    fit_gamma_from_file,
    program_kernel,
    sweep_deviation,
    weight_to_dv,
)
from .dog import (
    DogImage,
    FilteredImage,
    GaussianKernel,
    IntensityImage,
    OpCount,
    convolve_valid,
    dog,
    make_gaussian_kernel,
    op_count,
)
from .perf import PerfSpec, SimReport, energy, power, realtime_check, runtime
from .pipeline import (
    AdcSpec,
    AnalogConfig,
    CodeFrame,
    CurrentFrame,
    MonteCarloSummary,
    VariationModel,
    VariationSample,
    analog_convolve,
    draw_variation,
    edge_map,
    monte_carlo,
    quantize,
    run_dog_pipeline,
    sense,
    to_voltage,
)
