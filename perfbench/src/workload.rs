//! The three workloads and the seeded request generator.
//!
//! A run's request list is a pure function of `(workload, seed, passes)`:
//! `passes` passes over the workload's key pool, each pass in its own
//! seeded order, every request with its own seeded search seed. Every
//! pass holds the same keys, so the benchmark can report medians over
//! passes, and runs with different seeds search the same keys.

use aceso_serve::Request;
use aceso_util::SplitMix64;

/// One `(model, gpus, iteration budget)` search shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Zoo model name.
    pub model: &'static str,
    /// Simulated V100 count.
    pub gpus: usize,
    /// Deterministic iteration budget per stage count.
    pub iterations: usize,
}

const fn key(model: &'static str, gpus: usize, iterations: usize) -> Key {
    Key {
        model,
        gpus,
        iterations,
    }
}

/// Search-sized keys shared by `search-direct` and `serve-warm`: most
/// searches take 0.1–0.25 s on the reference machine (2 vCPUs), a few
/// 10–40 ms; a pass over all twelve takes about 1.4 s.
const SEARCH_POOL: [Key; 12] = [
    key("gpt3-0.35b", 4, 6),
    key("gpt3-0.35b", 6, 4),
    key("gpt3-1.3b", 4, 4),
    key("gpt3-1.3b", 8, 3),
    key("t5-0.77b", 4, 7),
    key("t5-0.77b", 8, 6),
    key("wresnet-0.5b", 4, 8),
    key("wresnet-0.5b", 6, 4),
    key("wresnet-0.5b", 8, 4),
    key("deepnet-16l", 4, 3),
    key("deepnet-24l", 6, 5),
    key("deepnet-32l", 8, 5),
];

/// Small keys of `serve-durable`: 2-iteration deepnet searches of
/// 1–20 ms, 24 distinct profile keys (more than its cache budget holds).
const DURABLE_POOL: [Key; 24] = [
    key("deepnet-8l", 2, 2),
    key("deepnet-8l", 3, 2),
    key("deepnet-8l", 4, 2),
    key("deepnet-16l", 2, 2),
    key("deepnet-16l", 3, 2),
    key("deepnet-16l", 4, 2),
    key("deepnet-24l", 2, 2),
    key("deepnet-24l", 3, 2),
    key("deepnet-24l", 4, 2),
    key("deepnet-32l", 2, 2),
    key("deepnet-32l", 3, 2),
    key("deepnet-32l", 4, 2),
    key("deepnet-40l", 2, 2),
    key("deepnet-40l", 3, 2),
    key("deepnet-40l", 4, 2),
    key("deepnet-48l", 2, 2),
    key("deepnet-48l", 3, 2),
    key("deepnet-48l", 4, 2),
    key("deepnet-56l", 2, 2),
    key("deepnet-56l", 3, 2),
    key("deepnet-56l", 4, 2),
    key("deepnet-64l", 2, 2),
    key("deepnet-64l", 3, 2),
    key("deepnet-64l", 4, 2),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library calls to `AcesoSearch::run_observed(true)`.
    SearchDirect,
    /// The same requests through an in-process default daemon whose
    /// profile cache is warmed during setup.
    ServeWarm,
    /// Small requests through a daemon with checkpoint spooling and a
    /// persistent profile store.
    ServeDurable,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SearchDirect,
        Workload::ServeWarm,
        Workload::ServeDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchDirect => "search-direct",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go through a daemon.
    pub fn served(self) -> bool {
        self != Workload::SearchDirect
    }

    /// Closed-loop client threads (capped at the core count). The direct
    /// search runs one request at a time: each search already runs its
    /// stage counts on parallel threads.
    pub fn clients(self) -> usize {
        let clients = match self {
            Workload::SearchDirect => 1,
            Workload::ServeWarm | Workload::ServeDurable => 2,
        };
        clients.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The key pool the request list cycles over.
    pub fn pool(self) -> &'static [Key] {
        match self {
            Workload::SearchDirect | Workload::ServeWarm => &SEARCH_POOL,
            Workload::ServeDurable => &DURABLE_POOL,
        }
    }

    /// Untimed pool passes before the timed ones, run one request at a
    /// time with the counting allocator on; `peak_heap_mb` is the median
    /// of their high-water marks. The search pool allocates the same way
    /// on every pass, so one is enough; on the durable pool the cache and
    /// store hold different keys from pass to pass.
    pub fn heap_passes(self) -> usize {
        match self {
            Workload::SearchDirect | Workload::ServeWarm => 1,
            Workload::ServeDurable => 5,
        }
    }

    /// Timed pool passes of a run, fixed so every run does the same
    /// work: at least 100 timed requests (so `latency_p90_ms` has ten
    /// samples beyond it), and 12–18 s of traffic on the reference
    /// machine (2 vCPUs) at the rates measured there: 6–7 requests/s on
    /// the search pool, direct or served, and 95–100 on the durable pool.
    pub fn passes(self) -> usize {
        match self {
            Workload::SearchDirect | Workload::ServeWarm => 9,
            Workload::ServeDurable => 50,
        }
    }
}

/// The request list of one run — a pure function of its arguments.
pub fn requests(workload: Workload, seed: u64, passes: usize) -> Vec<Request> {
    let pool = workload.pool();
    // Salt by workload so two workloads under one seed do not share an
    // order.
    let mut rng = SplitMix64::new(seed ^ aceso_util::fnv1a(workload.name().as_bytes()));
    let mut keys: Vec<Key> = Vec::with_capacity(passes * pool.len());
    for _ in 0..passes {
        let mut pass = pool.to_vec();
        rng.shuffle(&mut pass);
        keys.extend(pass);
    }
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| Request {
            model: k.model.to_string(),
            gpus: k.gpus,
            max_iterations: k.iterations,
            seed: rng.next_u64(),
            request_id: (workload == Workload::ServeDurable)
                .then(|| format!("perfbench-{seed:016x}-{i:05}")),
            ..Request::default()
        })
        .collect()
}

/// The pool key a request was generated from.
pub fn key_of(req: &Request) -> (String, usize, usize) {
    (req.model.clone(), req.gpus, req.max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_list_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(requests(w, 7, w.passes()), requests(w, 7, w.passes()));
            assert_ne!(requests(w, 7, w.passes()), requests(w, 8, w.passes()));
        }
    }

    #[test]
    fn every_run_times_at_least_100_requests() {
        for w in Workload::ALL {
            assert!(w.passes() * w.pool().len() >= 100, "{}", w.name());
        }
    }

    #[test]
    fn every_pass_holds_the_whole_pool() {
        for w in Workload::ALL {
            let pool = w.pool();
            let list = requests(w, 9, 3);
            for pass in list.chunks(pool.len()).take(3) {
                let mut got: Vec<_> = pass.iter().map(key_of).collect();
                let mut want: Vec<_> = pool
                    .iter()
                    .map(|k| (k.model.to_string(), k.gpus, k.iterations))
                    .collect();
                got.sort();
                want.sort();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn no_two_requests_are_identical() {
        for w in Workload::ALL {
            let list = requests(w, 11, w.passes());
            let seeds: HashSet<u64> = list.iter().map(|r| r.seed).collect();
            assert_eq!(seeds.len(), list.len());
            if w == Workload::ServeDurable {
                let ids: HashSet<_> = list.iter().map(|r| r.request_id.clone()).collect();
                assert_eq!(ids.len(), list.len());
            }
        }
    }

    #[test]
    fn requests_never_carry_a_wall_clock_budget() {
        for w in Workload::ALL {
            assert!(requests(w, 5, 2).iter().all(|r| r.budget_secs.is_none()));
        }
    }
}
