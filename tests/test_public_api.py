import anyonsim

#: the package's public names; a deletion or rename must show up here
PUBLIC_NAMES = [
    "ANNIHILATE", "AnyonState", "BogoliubovPair", "CREATE", "Circuit", "DensityMatrix",
    "FamilyMismatchError", "GateElement", "InvariantBreachError", "LadderTerm", "MinimalEntropyModes",
    "OperatorExpr", "PRESETS", "ParticleNumberMismatch", "PreconditionError", "SeparabilityReport",
    "SingleParticleUnitary", "SlaterDecomposition", "TransmutationMap", "TwoParticleCoefficients",
    "amplitude_number_conserving", "annihilation", "anyonic_amplitude_via_fastpath", "anyonize",
    "apply_annihilate", "apply_create", "apply_fswap", "apply_gate", "apply_induced_bogoliubov",
    "apply_number", "apply_operator_expr", "basis_state", "bs", "circuit_from_json_dict",
    "circuit_to_json_dict", "compile_single_particle", "creation", "decompose_distant", "entanglement",
    "errors", "fastpath", "fermionize", "fswap", "hopping", "identity_expr", "inner_product",
    "is_separable", "minimal_entropy_modes", "number", "occ_from_string", "occ_to_string", "one_body_rdm",
    "operators", "optics", "pa", "pair_source", "particle_trace_rdm", "presets", "ps",
    "reconstruct_from_slater", "run_circuit", "run_circuit_fastpath", "slater_decompose", "split_pair",
    "split_pair_circuit", "state_from_json_dict", "state_to_json_dict", "states", "transmute",
    "transmute_operator", "transmute_state", "two_particle_coefficients", "two_slater", "vacuum",
    "von_neumann_entropy",
]


def test_public_surface_is_pinned():
    assert sorted(anyonsim.__all__) == PUBLIC_NAMES
