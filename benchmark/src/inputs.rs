//! Seeded input generation: every request a workload sends is built here
//! from the harness seed, and rendered as the NDJSON line `gpgpuc batch` /
//! `gpgpuc serve` would accept — the program under test never sees the
//! seed, only these lines and kernels.

use crate::rng::{derive, Rng};
use gpgpu_fuzz::{KernelSpec, PairSpec};
use gpgpu_trace::Json;
use std::collections::HashSet;

/// The four workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Cold,
    FuzzVerify,
    ServeHot,
    StoreChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Cold,
        Workload::FuzzVerify,
        Workload::ServeHot,
        Workload::StoreChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Cold => "table1_cold",
            Workload::FuzzVerify => "fuzz_verify",
            Workload::ServeHot => "serve_hot",
            Workload::StoreChurn => "store_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request asks the compiler for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Body {
    Kernel(String),
    Pair { producer: String, consumer: String },
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: String,
    pub body: Body,
    /// Sorted by name, so the rendered line is byte-stable.
    pub bindings: Vec<(String, i64)>,
    pub verify_seed: u64,
    /// The NDJSON request line: the only thing the engine is handed.
    pub line: String,
}

impl Request {
    pub fn new(
        id: String,
        body: Body,
        mut bindings: Vec<(String, i64)>,
        verify_seed: u64,
    ) -> Request {
        bindings.sort();
        let payload = match &body {
            Body::Kernel(source) => ("source", Json::str(source)),
            Body::Pair { producer, consumer } => (
                "fuse",
                Json::Arr(vec![
                    Json::obj([("source", Json::str(producer))]),
                    Json::obj([("source", Json::str(consumer))]),
                ]),
            ),
        };
        let line = Json::obj([
            ("id", Json::str(&id)),
            payload,
            (
                "bindings",
                Json::Obj(
                    bindings
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                        .collect(),
                ),
            ),
            ("verify_seed", Json::count(verify_seed)),
        ])
        .compact();
        Request {
            id,
            body,
            bindings,
            verify_seed,
            line,
        }
    }

    /// What makes two requests the same cache key: everything but the id.
    fn key(&self) -> (Body, Vec<(String, i64)>) {
        (self.body.clone(), self.bindings.clone())
    }
}

/// Request counts. `--smoke` divides every count by 50 (and compiles the
/// Table-1 kernels at the sizes `tests/equivalence.rs` uses); it exists
/// for this crate's own tests, never for reported numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(4)
        } else {
            full
        }
    }

    /// Kernels per `fuzz_verify` pass.
    pub fn fuzz_kernels(self) -> usize {
        self.of(256)
    }

    /// Draws per `serve_hot` pass.
    pub fn serve_draws(self) -> usize {
        self.of(50_000)
    }

    /// Distinct keys per `store_churn` pass (one in eight is a fused pair).
    pub fn churn_keys(self) -> usize {
        self.of(256).next_multiple_of(8)
    }

    /// `restart_read` draws per `store_churn` pass.
    pub fn churn_draws(self) -> usize {
        8 * self.churn_keys()
    }
}

// One sub-stream of the seed per kind of generated thing.
const STREAM_ORDER: u64 = 1;
const STREAM_KERNEL: u64 = 2;
const STREAM_PAIR: u64 = 3;
const STREAM_DRAWS: u64 = 4;

/// Request lines carry the seed as `verify_seed`; JSON numbers are doubles,
/// so only the low 32 bits travel.
fn wire_seed(seed: u64) -> u64 {
    seed & 0xffff_ffff
}

/// The problem size each Table-1 kernel's output check (and the smoke
/// scale) compiles at — the sizes `tests/equivalence.rs` uses.
pub fn table1_check_size(name: &str) -> i64 {
    match name {
        "vv" => 4096,
        "rd" => 1 << 16,
        "conv" => 64,
        "tp" => 256,
        _ => 128,
    }
}

/// `table1_cold`: the ten Table-1 kernels in a seeded order.
pub fn table1_requests(seed: u64, scale: Scale) -> Vec<Request> {
    let mut suite = gpgpu_kernels::table1();
    Rng::new(derive(seed, STREAM_ORDER, 0)).shuffle(&mut suite);
    suite
        .into_iter()
        .map(|b| {
            let size = if scale.smoke {
                table1_check_size(b.name)
            } else {
                b.default_size
            };
            Request::new(
                format!("t1-{}", b.name),
                Body::Kernel(b.source.to_string()),
                (b.bind)(size).into_iter().collect(),
                wire_seed(seed),
            )
        })
        .collect()
}

/// Draws generated specs until `count` distinct keys exist; `make` maps a
/// running index to a request. Deterministic: the index sequence is fixed.
fn distinct(count: usize, mut make: impl FnMut(u64) -> Request) -> Vec<Request> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut index = 0u64;
    while out.len() < count {
        let req = make(index);
        index += 1;
        if seen.insert(req.key()) {
            out.push(req);
        }
    }
    out
}

/// Generated kernels come from a fixed *structural* population — access
/// patterns, strides, loop nests, guards, output rank and sizes are drawn
/// once, from this constant — and the harness seed draws the rest: the
/// constants and operators inside each kernel, the order, the input data.
///
/// The reason is the cost distribution. A generated kernel takes between
/// 0.6 ms and 450 ms to compile and check, decided almost entirely by its
/// structure (a nested 2-D row walk is one kernel in sixty and a quarter of
/// the total time), so two independently drawn sets of 256 differ by ±30 %
/// in wall time and ±70 % in p99 before the program under test changes at
/// all. Holding the structures fixed makes runs with different seeds
/// comparable; varying the rest still gives every seed its own set of
/// cache keys and its own data.
const POPULATION: u64 = 2010;

fn kernel_spec(seed: u64, index: u64) -> KernelSpec {
    let mut spec = KernelSpec::from_seed(derive(POPULATION, STREAM_KERNEL, index));
    let mut rng = Rng::new(derive(seed, STREAM_KERNEL, index));
    spec.multiply = rng.below(2) == 1;
    // Whether there is an added constant at all is structure (it is one
    // more operation per iteration); which constant is not.
    if spec.offset != 0 {
        spec.offset = [-3, -2, -1, 1, 2, 3][rng.below(6) as usize];
    }
    spec
}

fn pair_spec(seed: u64, index: u64) -> PairSpec {
    let mut spec = PairSpec::from_seed(derive(POPULATION, STREAM_PAIR, index));
    let mut rng = Rng::new(derive(seed, STREAM_PAIR, index));
    spec.scale = 1 + rng.below(3) as i8;
    spec.multiply = rng.below(2) == 1;
    if spec.shift != 0 {
        spec.shift = [-2, -1, 1, 2][rng.below(4) as usize];
    }
    spec
}

fn kernel_request(seed: u64, index: u64, id: String) -> Request {
    let case = kernel_spec(seed, index).build();
    Request::new(
        id,
        Body::Kernel(case.source),
        case.bindings,
        wire_seed(seed),
    )
}

fn pair_request(seed: u64, index: u64, id: String) -> Request {
    let pair = pair_spec(seed, index).build();
    Request::new(
        id,
        Body::Pair {
            producer: pair.producer_source,
            consumer: pair.consumer_source,
        },
        pair.bindings,
        wire_seed(seed),
    )
}

/// `fuzz_verify`: generated kernels, one compile + differential check each.
pub fn fuzz_requests(seed: u64, scale: Scale) -> Vec<Request> {
    (0..scale.fuzz_kernels() as u64)
        .map(|i| kernel_request(seed, i, format!("fz-{i}")))
        .collect()
}

/// The Table-1 kernels `serve_hot` keeps hot, at every size the paper
/// sweeps: the cheap-to-prime ones, so set-up stays about a second.
const SERVE_KERNELS: [&str; 6] = ["vv", "rd", "mv", "tp", "demosaic", "imregionmax"];
const SERVE_PAIRS: usize = 4;

/// `serve_hot`: the key set (primed in set-up) and the seeded-uniform
/// sequence of indices into it that the measured pass replays.
pub fn serve_requests(seed: u64, scale: Scale) -> (Vec<Request>, Vec<usize>) {
    let mut keys = Vec::new();
    for name in SERVE_KERNELS {
        let b = gpgpu_kernels::by_name(name).expect("a Table-1 kernel");
        let sizes: &[i64] = if scale.smoke { &b.sizes[..1] } else { b.sizes };
        for &size in sizes {
            keys.push(Request::new(
                format!("sh-{name}-{size}"),
                Body::Kernel(b.source.to_string()),
                (b.bind)(size).into_iter().collect(),
                wire_seed(seed),
            ));
        }
    }
    keys.extend(distinct(SERVE_PAIRS, |i| {
        pair_request(seed, i, format!("sh-pair-{i}"))
    }));
    let mut rng = Rng::new(derive(seed, STREAM_DRAWS, 0));
    let draws = (0..scale.serve_draws())
        .map(|_| rng.below(keys.len() as u64) as usize)
        .collect();
    (keys, draws)
}

/// `store_churn`: distinct keys (seven generated kernels, then one fused
/// pair, repeating) and the `restart_read` draw sequence over them.
pub fn churn_requests(seed: u64, scale: Scale) -> (Vec<Request>, Vec<usize>) {
    let count = scale.churn_keys();
    let mut kernels = distinct(count / 8 * 7, |i| {
        kernel_request(seed, i, format!("sc-k{i}"))
    })
    .into_iter();
    let mut pairs = distinct(count / 8, |i| pair_request(seed, i, format!("sc-p{i}"))).into_iter();
    let mut keys = Vec::with_capacity(count);
    for slot in 0..count {
        let next = if slot % 8 == 7 {
            pairs.next()
        } else {
            kernels.next()
        };
        keys.extend(next);
    }
    let mut rng = Rng::new(derive(seed, STREAM_DRAWS, 1));
    let draws = (0..scale.churn_draws())
        .map(|_| rng.below(keys.len() as u64) as usize)
        .collect();
    (keys, draws)
}

/// Every request line one pass of `workload` sends, in order — what
/// `--emit-workload` writes, and what `gpgpuc batch` can replay.
pub fn manifest(workload: Workload, seed: u64, scale: Scale) -> Vec<String> {
    let lines = |reqs: &[Request]| reqs.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
    match workload {
        Workload::Table1Cold => lines(&table1_requests(seed, scale)),
        Workload::FuzzVerify => lines(&fuzz_requests(seed, scale)),
        Workload::ServeHot => {
            let (keys, draws) = serve_requests(seed, scale);
            let mut out = lines(&keys);
            out.extend(draws.iter().map(|&d| keys[d].line.clone()));
            out
        }
        Workload::StoreChurn => {
            let (keys, draws) = churn_requests(seed, scale);
            let mut out = lines(&keys);
            out.extend(draws.iter().map(|&d| keys[d].line.clone()));
            out.extend(lines(&keys));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_service::CompileRequest;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn one_seed_gives_byte_identical_manifests() {
        for w in Workload::ALL {
            assert_eq!(
                manifest(w, 11, SMOKE),
                manifest(w, 11, SMOKE),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn two_seeds_give_different_key_sets() {
        for w in [
            Workload::FuzzVerify,
            Workload::StoreChurn,
            Workload::ServeHot,
        ] {
            let a: HashSet<String> = manifest(w, 11, SMOKE).into_iter().collect();
            let b: HashSet<String> = manifest(w, 12, SMOKE).into_iter().collect();
            assert_ne!(a, b, "{}", w.name());
        }
        // The Table-1 suite is fixed; the seed moves the order and the
        // verify seed only.
        assert_ne!(
            manifest(Workload::Table1Cold, 11, SMOKE),
            manifest(Workload::Table1Cold, 12, SMOKE)
        );
    }

    #[test]
    fn every_line_is_a_request_the_service_parses() {
        for w in Workload::ALL {
            for (i, line) in manifest(w, 5, SMOKE).iter().enumerate() {
                let req = CompileRequest::parse(line, i)
                    .unwrap_or_else(|e| panic!("{}: line {i}: {e}", w.name()));
                assert_eq!(req.verify_seed, 5);
            }
        }
    }

    #[test]
    fn churn_keys_are_distinct_and_one_in_eight_is_a_pair() {
        let scale = Scale { smoke: false };
        let (keys, draws) = churn_requests(3, scale);
        assert_eq!(keys.len(), 256);
        assert_eq!(draws.len(), 2048);
        let distinct: HashSet<_> = keys.iter().map(Request::key).collect();
        assert_eq!(distinct.len(), keys.len());
        let pairs = keys
            .iter()
            .filter(|k| matches!(k.body, Body::Pair { .. }))
            .count();
        assert_eq!(pairs, 32);
    }

    #[test]
    fn serve_keys_cover_every_swept_size() {
        let (keys, _) = serve_requests(1, Scale { smoke: false });
        assert_eq!(keys.len(), 24);
    }
}
