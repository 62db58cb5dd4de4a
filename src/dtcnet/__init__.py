"""dtcnet: driven spin chains as percolation graphs in configuration space.

The pipeline: build the two-step Floquet propagator of a disordered
Ising chain, extract its effective Hamiltonian from the quasienergy
spectrum, map configurations to graph nodes with the percolation rule,
and analyze the result (degree statistics, level statistics, power
spectra, quantum walks, classical stability) over disorder ensembles.
"""

__version__ = "0.1.0"

from .diagnostics import *
from .ensemble import *
from .floquet_core import *
from .netfit import *
from .percolation_graph import *
from .semiclassical import *
from .spin_hilbert import *
