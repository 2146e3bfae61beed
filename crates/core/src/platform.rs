//! The platform model (paper §2.2) and the purchase catalog (Table 1).
//!
//! Resources are fully connected: a fixed set of data *servers* holds the
//! basic objects, and *processors* are bought from a catalog of CPU and
//! network-card options (Dell PowerEdge R900 prices, March 2008). All
//! resources follow the full-overlap **bounded multi-port** model: a
//! resource computes, sends and receives simultaneously, may use many links
//! at once, but the total transfer rate through its network card is bounded
//! by the card's bandwidth.
//!
//! Units: bandwidths in MB/s (1 Gbps = 125 MB/s), speeds in Gop/s, costs in
//! whole dollars.

use crate::ids::{ServerId, TypeId};

/// MB/s in one Gbps.
pub const MBPS_PER_GBPS: f64 = 125.0;

/// Base price of one processor chassis (Table 1).
pub const CHASSIS_COST: u64 = 7_548;

/// One CPU option from Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuOption {
    /// Compute speed in Gop/s (the table's "GHz" column).
    pub speed: f64,
    /// Upgrade cost over the chassis price, in dollars.
    pub upgrade_cost: u64,
}

/// One network-card option from Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicOption {
    /// Card bandwidth in MB/s.
    pub bandwidth: f64,
    /// Upgrade cost over the chassis price, in dollars.
    pub upgrade_cost: u64,
}

/// Table 1 CPU options: (Gop/s, upgrade $).
pub const PAPER_CPUS: [CpuOption; 5] = [
    CpuOption {
        speed: 11.72,
        upgrade_cost: 0,
    },
    CpuOption {
        speed: 19.20,
        upgrade_cost: 1_550,
    },
    CpuOption {
        speed: 25.60,
        upgrade_cost: 2_399,
    },
    CpuOption {
        speed: 38.40,
        upgrade_cost: 3_949,
    },
    CpuOption {
        speed: 46.88,
        upgrade_cost: 5_299,
    },
];

/// Table 1 network-card options: (Gbps converted to MB/s, upgrade $).
pub const PAPER_NICS: [NicOption; 5] = [
    NicOption {
        bandwidth: 1.0 * MBPS_PER_GBPS,
        upgrade_cost: 0,
    },
    NicOption {
        bandwidth: 2.0 * MBPS_PER_GBPS,
        upgrade_cost: 399,
    },
    NicOption {
        bandwidth: 4.0 * MBPS_PER_GBPS,
        upgrade_cost: 1_197,
    },
    NicOption {
        bandwidth: 10.0 * MBPS_PER_GBPS,
        upgrade_cost: 2_800,
    },
    NicOption {
        bandwidth: 20.0 * MBPS_PER_GBPS,
        upgrade_cost: 5_999,
    },
];

/// A concrete processor configuration: one chassis + one CPU + one NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorKind {
    /// Compute speed `s_u` in Gop/s.
    pub speed: f64,
    /// NIC bandwidth `Bp_u` in MB/s.
    pub bandwidth: f64,
    /// Full purchase price (chassis + CPU upgrade + NIC upgrade).
    pub cost: u64,
}

impl ProcessorKind {
    fn from_options(cpu: CpuOption, nic: NicOption, chassis: u64) -> Self {
        ProcessorKind {
            speed: cpu.speed,
            bandwidth: nic.bandwidth,
            cost: chassis + cpu.upgrade_cost + nic.upgrade_cost,
        }
    }

    /// Whether this kind is at least as capable as `other` on both axes.
    pub fn dominates(&self, other: &ProcessorKind) -> bool {
        self.speed >= other.speed && self.bandwidth >= other.bandwidth
    }
}

/// The purchasable processor catalog.
///
/// `CONSTR-LAN` is the full cross product of Table 1 CPUs and NICs (25
/// kinds); `CONSTR-HOM` restricts it to a single kind
/// ([`Catalog::homogeneous`]). Kinds are kept sorted by increasing cost so
/// "cheapest fitting" scans are a forward pass.
#[derive(Debug, Clone)]
pub struct Catalog {
    kinds: Vec<ProcessorKind>,
    cpus: Vec<CpuOption>,
    nics: Vec<NicOption>,
    chassis_cost: u64,
}

impl Catalog {
    /// Builds a catalog from explicit CPU and NIC option lists.
    pub fn new(cpus: Vec<CpuOption>, nics: Vec<NicOption>, chassis_cost: u64) -> Self {
        assert!(
            !cpus.is_empty() && !nics.is_empty(),
            "catalog cannot be empty"
        );
        let mut kinds: Vec<ProcessorKind> = cpus
            .iter()
            .flat_map(|&c| {
                nics.iter()
                    .map(move |&n| ProcessorKind::from_options(c, n, chassis_cost))
            })
            .collect();
        kinds.sort_by(|a, b| {
            a.cost
                .cmp(&b.cost)
                .then(a.speed.partial_cmp(&b.speed).unwrap())
                .then(a.bandwidth.partial_cmp(&b.bandwidth).unwrap())
        });
        Catalog {
            kinds,
            cpus,
            nics,
            chassis_cost,
        }
    }

    /// The paper's Table 1 catalog (heterogeneous, CONSTR-LAN).
    pub fn paper() -> Self {
        Self::new(PAPER_CPUS.to_vec(), PAPER_NICS.to_vec(), CHASSIS_COST)
    }

    /// A CONSTR-HOM catalog: only the `(cpu_idx, nic_idx)` Table 1 pair can
    /// be bought.
    pub fn homogeneous(cpu_idx: usize, nic_idx: usize) -> Self {
        Self::new(
            vec![PAPER_CPUS[cpu_idx]],
            vec![PAPER_NICS[nic_idx]],
            CHASSIS_COST,
        )
    }

    /// All kinds, sorted by increasing cost.
    pub fn kinds(&self) -> &[ProcessorKind] {
        &self.kinds
    }

    /// The kind at catalog index `idx`.
    #[inline]
    pub fn kind(&self, idx: usize) -> ProcessorKind {
        self.kinds[idx]
    }

    /// Number of kinds.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the catalog is empty (never true for a constructed catalog).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The CPU option list (for Table 1 rendering).
    pub fn cpus(&self) -> &[CpuOption] {
        &self.cpus
    }

    /// The NIC option list (for Table 1 rendering).
    pub fn nics(&self) -> &[NicOption] {
        &self.nics
    }

    /// The chassis base price.
    pub fn chassis_cost(&self) -> u64 {
        self.chassis_cost
    }

    /// Index of the cheapest kind.
    pub fn cheapest(&self) -> usize {
        0
    }

    /// Index of the "most expensive" kind, which by Table 1's pricing is
    /// also the most capable (fastest CPU, widest NIC). Heuristics acquire
    /// this kind first and rely on the downgrade pass for cost.
    pub fn most_expensive(&self) -> usize {
        // The most expensive kind always exists; with the paper catalog it
        // is also dominant. With exotic catalogs, prefer a dominant kind if
        // one exists among the maximal-cost candidates.
        let max_speed = self.kinds.iter().map(|k| k.speed).fold(0.0, f64::max);
        let max_bw = self.kinds.iter().map(|k| k.bandwidth).fold(0.0, f64::max);
        self.kinds
            .iter()
            .position(|k| k.speed == max_speed && k.bandwidth == max_bw)
            .unwrap_or(self.kinds.len() - 1)
    }

    /// Index of the cheapest kind with `speed ≥ min_speed` and
    /// `bandwidth ≥ min_bandwidth`, or `None` if no kind qualifies.
    pub fn cheapest_fitting(&self, min_speed: f64, min_bandwidth: f64) -> Option<usize> {
        self.kinds
            .iter()
            .position(|k| k.speed >= min_speed && k.bandwidth >= min_bandwidth)
    }

    /// Best speed-per-dollar across kinds (used by cost lower bounds).
    pub fn best_speed_per_dollar(&self) -> f64 {
        self.kinds
            .iter()
            .map(|k| k.speed / k.cost as f64)
            .fold(0.0, f64::max)
    }

    /// Best bandwidth-per-dollar across kinds (used by cost lower bounds).
    pub fn best_bandwidth_per_dollar(&self) -> f64 {
        self.kinds
            .iter()
            .map(|k| k.bandwidth / k.cost as f64)
            .fold(0.0, f64::max)
    }
}

/// One data server: holds basic objects, replies to download streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    /// Network-card bandwidth `Bs_l` in MB/s (paper: 10 Gbps cards).
    pub nic_bandwidth: f64,
    /// Bandwidth `bs_l` of the link from this server to any processor, in
    /// MB/s (paper: "1 GB link", read as 1 GB/s = 1000 MB/s: the paper
    /// writes bytes here but quotes the NIC cards in Gbps).
    pub link_bandwidth: f64,
}

/// Which servers hold (and continuously update) each object type.
///
/// Replication is out-of-band (paper §2.3): an object may be hosted by
/// several servers and a processor picks one source per object.
#[derive(Debug, Clone, Default)]
pub struct ObjectPlacement {
    holders: Vec<Vec<ServerId>>,
}

impl ObjectPlacement {
    /// Placement for `n_types` object types, initially unhosted.
    pub fn new(n_types: usize) -> Self {
        ObjectPlacement {
            holders: vec![Vec::new(); n_types],
        }
    }

    /// Registers `server` as a holder of `ty` (idempotent).
    pub fn add_holder(&mut self, ty: TypeId, server: ServerId) {
        let list = &mut self.holders[ty.index()];
        if !list.contains(&server) {
            list.push(server);
            list.sort_unstable();
        }
    }

    /// Servers holding `ty` (`av_k` in the Object-Availability heuristic is
    /// the length of this slice).
    #[inline]
    pub fn holders(&self, ty: TypeId) -> &[ServerId] {
        &self.holders[ty.index()]
    }

    /// `av_k`: the number of servers holding `ty`.
    #[inline]
    pub fn availability(&self, ty: TypeId) -> usize {
        self.holders[ty.index()].len()
    }

    /// Whether `server` holds `ty`.
    pub fn is_holder(&self, ty: TypeId, server: ServerId) -> bool {
        self.holders[ty.index()].contains(&server)
    }

    /// Number of object types tracked.
    pub fn n_types(&self) -> usize {
        self.holders.len()
    }
}

/// The complete target platform: purchase catalog, data servers, object
/// placement and interconnect bandwidths.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The processor purchase catalog.
    pub catalog: Catalog,
    /// The fixed data servers.
    pub servers: Vec<Server>,
    /// Which servers hold which object types.
    pub placement: ObjectPlacement,
    /// Bandwidth `bp` of the bidirectional link between any two distinct
    /// processors, in MB/s.
    pub proc_link: f64,
}

impl Platform {
    /// The paper's §5 platform: 6 servers with 10 Gbps cards, 1 GB/s links
    /// everywhere, Table 1 catalog. Object placement starts empty; callers
    /// (typically `snsp-gen`) distribute the types over the servers.
    pub fn paper(n_types: usize) -> Self {
        Platform {
            catalog: Catalog::paper(),
            servers: vec![
                Server {
                    nic_bandwidth: 10.0 * MBPS_PER_GBPS,
                    link_bandwidth: 1000.0,
                };
                6
            ],
            placement: ObjectPlacement::new(n_types),
            proc_link: 1000.0,
        }
    }

    /// Server accessor.
    #[inline]
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// All server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> {
        (0..self.servers.len()).map(ServerId::from)
    }

    /// The widest server→processor link over the holders of `ty`
    /// (an upper bound on the rate one download of `ty` may use).
    pub fn best_link_for(&self, ty: TypeId) -> f64 {
        self.placement
            .holders(ty)
            .iter()
            .map(|&s| self.server(s).link_bandwidth)
            .fold(0.0, f64::max)
    }

    /// Checks internal consistency: every object type hosted somewhere,
    /// positive bandwidths.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers.is_empty() {
            return Err("platform has no servers".into());
        }
        if self.proc_link <= 0.0 {
            return Err("non-positive processor link bandwidth".into());
        }
        for (i, s) in self.servers.iter().enumerate() {
            if s.nic_bandwidth <= 0.0 || s.link_bandwidth <= 0.0 {
                return Err(format!("server {i} has non-positive bandwidth"));
            }
        }
        for ty in 0..self.placement.n_types() {
            let ty = TypeId::from(ty);
            // An unhosted type is fine platform-wise; Instance::validate
            // rejects it only when the operator tree actually uses it.
            for &s in self.placement.holders(ty) {
                if s.index() >= self.servers.len() {
                    return Err(format!("object type {ty} hosted by unknown server {s}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_has_25_kinds_sorted_by_cost() {
        let cat = Catalog::paper();
        assert_eq!(cat.len(), 25);
        assert!(cat.kinds().windows(2).all(|w| w[0].cost <= w[1].cost));
        // Cheapest: base chassis with entry CPU and 1 Gbps NIC.
        let cheap = cat.kind(cat.cheapest());
        assert_eq!(cheap.cost, 7_548);
        assert!((cheap.speed - 11.72).abs() < 1e-9);
        assert!((cheap.bandwidth - 125.0).abs() < 1e-9);
        // Most expensive: fastest CPU + 20 Gbps NIC.
        let top = cat.kind(cat.most_expensive());
        assert_eq!(top.cost, 7_548 + 5_299 + 5_999);
        assert!((top.speed - 46.88).abs() < 1e-9);
        assert!((top.bandwidth - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn most_expensive_dominates_everything_in_paper_catalog() {
        let cat = Catalog::paper();
        let top = cat.kind(cat.most_expensive());
        for k in cat.kinds() {
            assert!(top.dominates(k));
        }
    }

    #[test]
    fn cheapest_fitting_scans_forward() {
        let cat = Catalog::paper();
        // Needs a mid CPU and a 4 Gbps NIC.
        let idx = cat.cheapest_fitting(20.0, 400.0).unwrap();
        let k = cat.kind(idx);
        assert!(k.speed >= 20.0 && k.bandwidth >= 400.0);
        // Every cheaper kind must fail one of the two requirements.
        for cheaper in &cat.kinds()[..idx] {
            assert!(cheaper.speed < 20.0 || cheaper.bandwidth < 400.0);
        }
        // Impossible requirements yield None.
        assert!(cat.cheapest_fitting(1e9, 0.0).is_none());
        assert!(cat.cheapest_fitting(0.0, 1e9).is_none());
    }

    #[test]
    fn homogeneous_catalog_is_single_kind() {
        let cat = Catalog::homogeneous(0, 0);
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.most_expensive(), 0);
        assert_eq!(cat.kind(0).cost, 7_548);
    }

    #[test]
    fn table1_cost_ratios_match_paper() {
        // The paper reports GHz/$ and Gbps/$ ratios; spot-check two rows.
        let r = PAPER_CPUS[0].speed / (CHASSIS_COST + PAPER_CPUS[0].upgrade_cost) as f64;
        assert!((r - 1.55e-3).abs() < 1e-5);
        let gbps = PAPER_NICS[4].bandwidth / MBPS_PER_GBPS;
        let r = gbps / (CHASSIS_COST + PAPER_NICS[4].upgrade_cost) as f64;
        assert!((r - 14.76e-4).abs() < 1e-6);
    }

    #[test]
    fn placement_tracks_holders_and_availability() {
        let mut p = ObjectPlacement::new(3);
        p.add_holder(TypeId(0), ServerId(2));
        p.add_holder(TypeId(0), ServerId(1));
        p.add_holder(TypeId(0), ServerId(2)); // duplicate ignored
        p.add_holder(TypeId(2), ServerId(0));
        assert_eq!(p.availability(TypeId(0)), 2);
        assert_eq!(p.holders(TypeId(0)), &[ServerId(1), ServerId(2)]);
        assert_eq!(p.availability(TypeId(1)), 0);
        assert!(p.is_holder(TypeId(2), ServerId(0)));
    }

    #[test]
    fn paper_platform_validates_once_objects_are_placed() {
        let mut plat = Platform::paper(2);
        assert!(plat.validate().is_ok()); // unhosted types are not a platform error
        plat.placement.add_holder(TypeId(0), ServerId(0));
        plat.placement.add_holder(TypeId(1), ServerId(5));
        assert!(plat.validate().is_ok());
        assert!((plat.server(ServerId(0)).nic_bandwidth - 1250.0).abs() < 1e-9);
        assert!((plat.best_link_for(TypeId(0)) - 1000.0).abs() < 1e-9);
    }
}
