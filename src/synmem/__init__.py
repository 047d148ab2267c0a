"""Synaptic memory organization: encoded weight stores, an analytic access
energy model, fixed-point quantization, and a spiking-network trainer whose
memory traffic is accounted exactly."""

__version__ = "0.1.0"

from .matrix import SynapseMatrix, random_synapse_matrix
from .stores import (BitmapStore, CrossbarStore, CsrStore, build_bitmap,
                     build_crossbar, build_csr, fc_pass_traces)
from .conv import (ConvGeometry, FunctionalStore, build_functional,
                   connection_count, conv_forward_addresses,
                   conv_reverse_addresses, csr_from_conv,
                   functional_pass_traces)
from .trace import AccessTrace, MemBank
from .energy import (CostModel, DEFAULT_MODEL, CalibrationError,
                     EnergyOverflowError, FcLayer, ConvLayer, calibrate_defaults,
                     layer_sweep, load_cost_model, pass_energy,
                     sweep_density_leakage, training_energy)
from .quant import (QuantConfig, eta, quantize_error, quantize_weights, sigma,
                    stochastic_round, weight_range)
from .rng import CounterRng, derive_seed
from .snn import (LayerHistory, LifParams, NetworkConfig, bptt_gradients,
                  clean_pattern, generate_poisson_input, generate_target,
                  lif_step, run_episode, surrogate_derivative, train,
                  train_cells, van_rossum, vr_filter)
from .serialize import ContainerError, from_bytes, to_bytes
