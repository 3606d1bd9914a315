//! Seeded request generation. The program under test sees only what is
//! generated here; one `--seed` gives one byte-identical request
//! sequence.

use hpcapps::{AppId, AppSpec};
use serve::{AnalysisQuery, Backend};
use simrng::SimRng;

use crate::check::{paper_model, Expect};

pub const VIEWS: [&str; 3] = ["verdict", "conflicts", "patterns"];

/// The 23 Table 4 configurations, in registry order.
pub fn table4_specs() -> Vec<&'static AppSpec> {
    hpcapps::specs().iter().filter(|s| s.in_table4).collect()
}

/// The `cold_scale` subset: the configurations whose cost grows fastest
/// with the world size, plus two cheap ones so p50 is not FLASH alone.
pub fn scale_specs() -> Vec<&'static AppSpec> {
    [
        AppId::FlashFbs,
        AppId::Nwchem,
        AppId::Enzo,
        AppId::VpicIo,
        AppId::LammpsPosix,
        AppId::Macsio,
    ]
    .into_iter()
    .map(hpcapps::spec_ref)
    .collect()
}

/// One analysis key: what the service caches and stores by.
#[derive(Clone, Copy)]
pub struct Key {
    pub spec: &'static AppSpec,
    pub ranks: u32,
    pub seed: u64,
}

impl Key {
    pub fn path(&self, view: &str) -> String {
        format!(
            "/v1/{view}/{}/{}?ranks={}&seed={}",
            self.spec.app, self.spec.iolib, self.ranks, self.seed
        )
    }

    /// The canonical query the service derives from [`Key::path`].
    pub fn query(&self, backend: &dyn Backend) -> AnalysisQuery {
        backend
            .canonicalize(AnalysisQuery {
                app: self.spec.app.to_string(),
                config: self.spec.iolib.to_string(),
                ranks: self.ranks,
                seed: self.seed,
                model: "both".to_string(),
                faults: "none".to_string(),
            })
            .expect("registry configurations canonicalize")
    }

    /// Where the key sits on the fleet's ring — the same point the
    /// service uses, derived through its public key type.
    pub fn ring_point(&self, backend: &dyn Backend) -> u64 {
        self.query(backend).cache_key().fingerprint().0
    }
}

/// One pre-rendered request and what its response must satisfy. Rendering
/// up front keeps `format!` out of the timed loop.
pub struct Request {
    pub wire: Box<[u8]>,
    pub expect: Expect,
}

pub fn wire(path: &str) -> Box<[u8]> {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .into_bytes()
        .into_boxed_slice()
}

/// Per-connection request lists for a cold workload: `cycles` passes over
/// `specs`, each in a freshly shuffled order (or, with `shuffle` off, in
/// the given order on every connection), every request carrying a seed no
/// other request of the run carries, so each one is a guaranteed miss.
pub fn cold_plan(
    specs: &[&'static AppSpec],
    ranks: u32,
    (conns, cycles): (usize, usize),
    seed: u64,
    shuffle: bool,
) -> Vec<Vec<Request>> {
    let mut rng = SimRng::seed_from_u64(seed);
    // Seeds come in blocks of 2^24 so runs with neighbouring `--seed`
    // values never share a key either.
    let base = (rng.next_u64() >> 24) << 24;
    let mut next = 0u64;
    (0..conns)
        .map(|_| {
            let mut list = Vec::with_capacity(cycles * specs.len());
            for _ in 0..cycles {
                let mut order: Vec<&'static AppSpec> = specs.to_vec();
                if shuffle {
                    rng.shuffle(&mut order);
                }
                for spec in order {
                    let key = Key {
                        spec,
                        ranks,
                        seed: base + next,
                    };
                    next += 1;
                    list.push(Request {
                        wire: wire(&key.path("verdict")),
                        expect: Expect::Model(paper_model(spec)),
                    });
                }
            }
            list
        })
        .collect()
}

/// Share of `fleet_proxy`'s keys that node 2 owns, in eighths. Not a half:
/// local and forwarded requests are two separate latency modes, and with an
/// even split the median would sit in the gap between them. At 3/8 the
/// median is a local request and the 90th percentile a forwarded one.
pub const FOREIGN_EIGHTHS: usize = 3;

/// `n` warm keys cycling over the Table 4 configurations, seeds drawn
/// from `seed`. With `balance = Some(ring)`, keys are drawn until exactly
/// [`FOREIGN_EIGHTHS`]/8 of them belong to the second of the ring's two
/// nodes, so the forwarded share of `fleet_proxy` does not move with the
/// seed.
pub fn warm_keys(
    n: usize,
    ranks: u32,
    seed: u64,
    backend: &dyn Backend,
    balance: Option<&cluster::Ring>,
) -> Vec<Key> {
    let specs = table4_specs();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5741_524d);
    let base = (rng.next_u64() >> 24) << 24;
    let mut keys = Vec::with_capacity(n);
    let foreign = n * FOREIGN_EIGHTHS / 8;
    let quota = [n - foreign, foreign];
    let mut per_node = [0usize; 2];
    let mut i = 0u64;
    while keys.len() < n {
        let key = Key {
            spec: specs[(i as usize) % specs.len()],
            ranks,
            seed: base + i,
        };
        i += 1;
        if let Some(ring) = balance {
            let owner = ring.owner(key.ring_point(backend)).expect("two-node ring");
            let node = (owner - 1) as usize;
            if per_node[node] == quota[node] {
                continue;
            }
            per_node[node] += 1;
        }
        keys.push(key);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(plan: &[Vec<Request>]) -> Vec<Vec<u8>> {
        plan.iter()
            .flat_map(|l| l.iter().map(|r| r.wire.to_vec()))
            .collect()
    }

    #[test]
    fn one_seed_one_byte_identical_sequence() {
        let specs = table4_specs();
        let a = wires(&cold_plan(&specs, 64, (2, 3), 2021, true));
        let b = wires(&cold_plan(&specs, 64, (2, 3), 2021, true));
        let c = wires(&cold_plan(&specs, 64, (2, 3), 2022, true));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2 * 3 * 23);
    }

    #[test]
    fn every_cold_request_is_a_distinct_key() {
        let plan = cold_plan(&scale_specs(), 256, (2, 5), 7, true);
        let mut all = wires(&plan);
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(n, 2 * 5 * 6);
    }

    #[test]
    fn paths_resolve_back_to_their_configuration() {
        for spec in table4_specs() {
            let key = Key {
                spec,
                ranks: 4,
                seed: 1,
            };
            let path = key.path("verdict");
            assert!(
                path.bytes()
                    .all(|b| b.is_ascii_graphic() && b != b'%' && b != b'#'),
                "{path}"
            );
            let back = hpcapps::find_config(spec.app, spec.iolib).unwrap();
            assert_eq!(back.id, spec.id, "{path}");
        }
    }

    #[test]
    fn balanced_warm_keys_give_node_two_its_fixed_share() {
        let backend = report_gen::ReportBackend::new();
        let ring = cluster::Ring::build(&[1, 2]);
        let keys = warm_keys(64, 4, 3, &backend, Some(&ring));
        let on_two = keys
            .iter()
            .filter(|k| ring.owner(k.ring_point(&backend)) == Some(2))
            .count();
        assert_eq!((keys.len(), on_two), (64, 24));
        let again = warm_keys(64, 4, 3, &backend, Some(&ring));
        assert!(keys.iter().zip(&again).all(|(a, b)| a.seed == b.seed));
    }
}
