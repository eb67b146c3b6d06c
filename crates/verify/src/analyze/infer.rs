//! Spec inference: fit a candidate [`ProgramSpec`] from an observed
//! warm-up window of *concrete* operations — the trust-but-verify
//! front half of proof-carrying execution for programs that never
//! declared a spec.
//!
//! The fit is deliberately conservative and exact:
//!
//! 1. **Periodicity.** Each processor's observed `(kind, offset)`
//!    stream must be an exact repetition of its shortest period, and
//!    the period must repeat **at least twice** — one occurrence is
//!    not evidence of a loop, and a non-repeating (e.g. data-dependent
//!    random) stream is honestly uninferable
//!    ([`InferError::NotPeriodic`]), never guessed at.
//! 2. **Cross-processor fit.** When every processor runs the same
//!    number of ops per round with the same kinds, each position is
//!    fitted to a symbolic [`OffsetExpr`]: all offsets equal →
//!    [`OffsetExpr::Const`]; otherwise a two-point linear fit
//!    `(base + stride·p) mod offsets` taken from processors 0 and 1
//!    and **verified on every processor** → [`OffsetExpr::ProcLinear`].
//!    Positions that fit neither drop the whole window to the per-
//!    processor fallback: each stream becomes its own literal list of
//!    `Const` ops — still exact, just not generalized.
//!
//! Soundness does not rest on the fit being "right": the candidate
//! spec is re-proven by the ordinary prover
//! ([`super::summarize`]) before anything is armed, and the machine /
//! service disarm on the first op outside the inferred footprint
//! (trust-but-verify), so a wrong guess costs performance, never
//! bytes.

use std::fmt;

use cfm_core::op::OpKind;
use cfm_core::spec::{OffsetExpr, OpPattern, OpSpec, ProgramSpec};

/// One observed admitted operation: the kind tag plus the concrete
/// block offset it resolved to. This is exactly what
/// `cfm_serve::service::Footprints::observation_window` hands back.
pub type ObservedOp = (OpKind, usize);

/// Why no candidate spec could be fitted from an observation window.
/// Inference failing is a *normal* outcome — the program simply keeps
/// the runtime window proof — so the error names the evidence that was
/// missing rather than claiming anything is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// Every observed stream was empty: nothing to fit.
    Empty,
    /// Stream `proc` has no exact period repeated at least twice in
    /// its `len` observed ops, so extrapolating beyond the window
    /// would be a guess.
    NotPeriodic {
        /// Index of the unfittable stream.
        proc: usize,
        /// Ops observed in that stream.
        len: usize,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Empty => write!(f, "no operations observed"),
            InferError::NotPeriodic { proc, len } => write!(
                f,
                "stream {proc}: no exact period repeated ≥ 2× in {len} observed ops"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// The spec-level pattern an observed operation kind fits.
fn pattern_of(kind: OpKind) -> OpPattern {
    match kind {
        OpKind::Read => OpPattern::Read,
        OpKind::Write => OpPattern::Write,
        OpKind::Swap => OpPattern::Swap,
        OpKind::Rmw => OpPattern::FetchAdd,
    }
}

/// The smallest `L` such that the stream is exactly its first `L` ops
/// repeated `len / L ≥ 2` times, or `None` when no such period exists.
fn smallest_period(stream: &[ObservedOp]) -> Option<usize> {
    let len = stream.len();
    (1..=len / 2)
        .filter(|&l| len.is_multiple_of(l))
        .find(|&l| stream.chunks(l).all(|chunk| chunk == &stream[..l]))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Fit one symbolic op list covering every processor's per-round list,
/// or `None` when the lists disagree in length, kind, or offset shape.
fn cross_proc_fit(lists: &[Vec<ObservedOp>], offsets: usize) -> Option<Vec<OpSpec>> {
    let m = lists.first()?.len();
    if m == 0 || offsets == 0 || lists.iter().any(|l| l.len() != m) {
        return None;
    }
    let mut ops = Vec::with_capacity(m);
    for i in 0..m {
        let (kind, base) = lists[0][i];
        if lists.iter().any(|l| l[i].0 != kind) {
            return None;
        }
        let offset = if lists.iter().all(|l| l[i].1 == base) {
            OffsetExpr::Const(base)
        } else {
            // Two-point linear fit, then verified exactly on every
            // processor — a coincidental match on procs 0/1 alone
            // never survives.
            let stride = (lists[1][i].1 + offsets - base % offsets) % offsets;
            let expr = OffsetExpr::ProcLinear { base, stride };
            if lists
                .iter()
                .enumerate()
                .any(|(p, l)| expr.eval(p, offsets) != l[i].1)
            {
                return None;
            }
            expr
        };
        ops.push(OpSpec::new(pattern_of(kind), offset));
    }
    Some(ops)
}

/// Fit a candidate [`ProgramSpec`] from per-processor observation
/// windows on a machine with `offsets` blocks. `streams[p]` is the
/// exact sequence of ops processor `p` was observed issuing; an empty
/// stream means the processor idled (and idles in the candidate).
///
/// The returned spec instantiates to precisely the observed kinds and
/// offsets for `rounds × |ops[p]| = streams[p].len()` ops per
/// processor, then extrapolates the same loop forward. Callers must
/// re-prove it (e.g. [`super::summarize`]) before arming anything.
pub fn infer_spec(
    name: &str,
    streams: &[Vec<ObservedOp>],
    offsets: usize,
) -> Result<ProgramSpec, InferError> {
    if streams.iter().all(|s| s.is_empty()) {
        return Err(InferError::Empty);
    }
    let mut repeats = Vec::with_capacity(streams.len());
    for (p, s) in streams.iter().enumerate() {
        if s.is_empty() {
            repeats.push(0);
            continue;
        }
        let period = smallest_period(s).ok_or(InferError::NotPeriodic {
            proc: p,
            len: s.len(),
        })?;
        repeats.push(s.len() / period);
    }
    // The spec repeats every processor's list the *same* number of
    // rounds, so the common round count is the gcd of the per-stream
    // repetition counts (each per-round list is then a whole multiple
    // of that stream's shortest period — still an exact period).
    let rounds = repeats.iter().copied().fold(0, gcd).max(1);
    let lists: Vec<Vec<ObservedOp>> = streams
        .iter()
        .map(|s| s[..s.len() / rounds].to_vec())
        .collect();
    let ops = match cross_proc_fit(&lists, offsets) {
        Some(fitted) => vec![fitted; streams.len()],
        // Per-processor fallback: each stream verbatim as constants.
        None => lists
            .iter()
            .map(|l| {
                l.iter()
                    .map(|&(k, o)| OpSpec::new(pattern_of(k), OffsetExpr::Const(o)))
                    .collect()
            })
            .collect(),
    };
    Ok(ProgramSpec {
        name: name.to_string(),
        processors: streams.len(),
        rounds,
        ops,
        locks: Vec::new(),
    })
}

/// Fit a candidate spec from a *single* tenant-level stream (the
/// `cfm-serve` observation format), claiming the stream's loop on
/// **every** of the machine's `procs` processors — a service tenant's
/// ops are multiplexed onto whichever processor is free, so the only
/// sound per-processor claim is "any of them".
pub fn infer_from_stream(
    name: &str,
    stream: &[ObservedOp],
    procs: usize,
    offsets: usize,
) -> Result<ProgramSpec, InferError> {
    if stream.is_empty() {
        return Err(InferError::Empty);
    }
    debug_assert!(
        stream.iter().all(|&(_, o)| o < offsets),
        "observed offsets were admitted against this geometry"
    );
    let period = smallest_period(stream).ok_or(InferError::NotPeriodic {
        proc: 0,
        len: stream.len(),
    })?;
    let ops: Vec<OpSpec> = stream[..period]
        .iter()
        .map(|&(k, o)| OpSpec::new(pattern_of(k), OffsetExpr::Const(o)))
        .collect();
    Ok(ProgramSpec::uniform(
        name,
        procs,
        stream.len() / period,
        ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(o: usize) -> ObservedOp {
        (OpKind::Write, o)
    }
    fn r(o: usize) -> ObservedOp {
        (OpKind::Read, o)
    }

    #[test]
    fn const_and_proclinear_streams_are_fitted_symbolically() {
        // Proc p loops [write p, read 3] twice → write is ProcLinear
        // {base 0, stride 1}, read is Const(3).
        let streams: Vec<Vec<ObservedOp>> = (0..4).map(|p| vec![w(p), r(3), w(p), r(3)]).collect();
        let spec = infer_spec("fit", &streams, 8).expect("periodic");
        assert_eq!(spec.rounds, 2);
        assert_eq!(spec.processors, 4);
        assert!(
            spec.ops.windows(2).all(|x| x[0] == x[1]),
            "fit is uniform across processors"
        );
        assert_eq!(
            spec.ops[0],
            vec![
                OpSpec::new(
                    OpPattern::Write,
                    OffsetExpr::ProcLinear { base: 0, stride: 1 }
                ),
                OpSpec::new(OpPattern::Read, OffsetExpr::Const(3)),
            ]
        );
        // The candidate instantiates to exactly the observed streams.
        for (p, s) in streams.iter().enumerate() {
            let got: Vec<ObservedOp> = spec
                .instantiate(p, 4, 8)
                .iter()
                .map(|op| (op.kind(), op.offset()))
                .collect();
            assert_eq!(&got, s, "proc {p} round-trips");
        }
    }

    #[test]
    fn single_occurrence_and_random_streams_are_not_periodic() {
        // One loop iteration is not evidence of a loop.
        let once = vec![vec![w(0), r(1), w(2)]];
        assert_eq!(
            infer_spec("once", &once, 8).unwrap_err(),
            InferError::NotPeriodic { proc: 0, len: 3 }
        );
        // A non-repeating walk has no exact period at all.
        let ramp = vec![vec![w(0), w(1), w(2), w(3), w(4), w(5)]];
        assert_eq!(
            infer_spec("ramp", &ramp, 8).unwrap_err(),
            InferError::NotPeriodic { proc: 0, len: 6 }
        );
        assert_eq!(
            infer_spec("empty", &[vec![], vec![]], 8).unwrap_err(),
            InferError::Empty
        );
    }

    #[test]
    fn mismatched_streams_fall_back_to_per_proc_constants() {
        // Same lengths but kinds disagree at position 0: no uniform
        // fit, each stream kept verbatim.
        let streams = vec![vec![w(0), w(0)], vec![r(5), r(5)]];
        let spec = infer_spec("mixed", &streams, 8).expect("still periodic");
        assert_eq!(spec.rounds, 2);
        assert_eq!(
            spec.ops[0],
            vec![OpSpec::new(OpPattern::Write, OffsetExpr::Const(0))]
        );
        assert_eq!(
            spec.ops[1],
            vec![OpSpec::new(OpPattern::Read, OffsetExpr::Const(5))]
        );
    }

    #[test]
    fn coprime_repeat_counts_collapse_to_one_round() {
        // Proc 0 repeats its op 2×, proc 1 repeats 3×: gcd is 1, so
        // the whole window becomes a single round — exact, just not
        // compressed.
        let streams = vec![vec![w(0), w(0)], vec![w(1), w(1), w(1)]];
        let spec = infer_spec("coprime", &streams, 8).expect("periodic");
        assert_eq!(spec.rounds, 1);
        assert_eq!(spec.ops[0].len(), 2);
        assert_eq!(spec.ops[1].len(), 3);
    }

    #[test]
    fn tenant_stream_claims_every_processor() {
        let stream = vec![w(2), r(6), w(2), r(6)];
        let spec = infer_from_stream("tenant", &stream, 4, 8).expect("periodic");
        assert_eq!(spec.processors, 4);
        assert_eq!(spec.rounds, 2);
        let fp = spec.footprint(8).expect("all constants");
        assert!(fp.written(2).unwrap() && fp.touches(6).unwrap());
        for p in 0..4 {
            assert!(fp.declares(p, true, 2).unwrap(), "proc {p} claimed");
        }
        assert!(!fp.touches(0).unwrap());
    }

    #[test]
    fn rmw_maps_to_fetch_add() {
        let stream = vec![(OpKind::Rmw, 1), (OpKind::Rmw, 1)];
        let spec = infer_from_stream("rmw", &stream, 2, 4).expect("periodic");
        assert_eq!(spec.ops[0][0].pattern, OpPattern::FetchAdd);
    }
}
