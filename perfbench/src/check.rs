//! Output checks made apart from the optimizer: gate counts, state-vector
//! equivalence on random states, and Theorem 7 local optimality on a
//! seeded sample of Ω-windows.

use crate::util::Rng;
use popqc::ir::{qasm, Circuit, Gate};
use popqc::oracles::SegmentOracle;

/// Widest circuit the state-vector check simulates (2^12 amplitudes).
pub const SIM_MAX_QUBITS: u32 = 12;
/// Ω-windows sampled per output for the local-optimality count.
pub const WINDOWS_PER_OUTPUT: usize = 16;
/// The engine's window radius in every workload (the CLI and server
/// default).
pub const OMEGA: usize = 200;

/// What the checks found in one output that passed them.
pub struct Checked {
    pub gates: usize,
    /// Sampled Ω-windows the oracle can still improve. Theorem 7 makes
    /// this 0 only for a well-behaved oracle, which the built-in oracles
    /// are not documented to be (see `qoracle::WellBehavedOracle`), so it
    /// is counted, not failed.
    pub improvable_windows: usize,
}

/// Parses an optimized output and checks it against its input: it must
/// parse, have no more gates, and (up to [`SIM_MAX_QUBITS`]) act like
/// the input on random states.
pub fn check_output(
    input: &Circuit,
    output_qasm: &str,
    oracle: &(dyn SegmentOracle<Gate> + Send + Sync),
    seed: u64,
) -> Result<Checked, String> {
    let output = qasm::parse(output_qasm).map_err(|e| format!("output does not parse: {e}"))?;
    if output.len() > input.len() {
        return Err(format!(
            "output has {} gates, more than the input's {}",
            output.len(),
            input.len()
        ));
    }
    if input.num_qubits.max(output.num_qubits) <= SIM_MAX_QUBITS
        && !popqc::sim::circuits_equivalent(input, &output, 2, seed)
    {
        return Err("output is not equivalent to its input on random states".to_string());
    }
    Ok(Checked {
        gates: output.len(),
        improvable_windows: improvable_windows(&output.gates, output.num_qubits, oracle, seed),
    })
}

/// Theorem 7 on a seeded sample: how many of [`WINDOWS_PER_OUTPUT`]
/// Ω-windows of `gates` the oracle can still improve (by the acceptance
/// test the engine applies).
pub fn improvable_windows(
    gates: &[Gate],
    num_qubits: u32,
    oracle: &(dyn SegmentOracle<Gate> + Send + Sync),
    seed: u64,
) -> usize {
    if gates.len() < 2 {
        return 0;
    }
    let starts = gates.len().saturating_sub(OMEGA - 1).max(1);
    let mut rng = Rng::new(seed);
    (0..WINDOWS_PER_OUTPUT)
        .filter(|_| {
            let start = rng.below(starts);
            let window = &gates[start..(start + OMEGA).min(gates.len())];
            let opt = oracle.optimize(window, num_qubits);
            oracle.cost(&opt) < oracle.cost(window) && opt.len() <= window.len()
        })
        .count()
}
