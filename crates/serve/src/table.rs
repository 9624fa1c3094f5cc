//! The sharded object table: named wait-free objects, each striped
//! across `S` independent [`ObjectInstance`]s.
//!
//! Sharding trades read cost for write scalability exactly the way the
//! paper's own constructions do — a shard is a full object, and the
//! cross-shard merge is only used where the object's semantics make the
//! merged read linearizable. Which merge an object takes is a field of
//! its row ([`ObjectSpec::merge`]); why each choice is sound is argued
//! here, where the merges are carried out:
//!
//! * **counter** ([`Merge::Sum`]) — an inc routes to the connection's affinity shard; a
//!   read sums one collect per shard. This is the striped-counter
//!   structure applied once more at the table level, and the summed
//!   read linearizes for the same reason the striped counter's does
//!   (increments commute; the read's per-shard collects each see a
//!   prefix-closed set of incs).
//! * **maxreg / clock** ([`Merge::Max`]) — writes route by affinity; a read takes the
//!   max over shards. A max-register is a join-semilattice, so the
//!   merged read is a Section 6 collect over shard summaries — sound
//!   for exactly the reason the paper's scan is.
//! * **lwwmap / lwwmap-direct** ([`Merge::Keyed`]) — both ops route by `key % S`,
//!   so each key lives on one shard and no merge is needed.
//! * **afek** ([`Merge::Affinity`]) — a snapshot view cannot be merged across shards
//!   consistently, so both ops stay on the affinity shard (sharding
//!   partitions tenants, not the object).
//! * **mwreg** ([`Merge::Single`]) — a single register; sharding does not apply and all
//!   traffic uses shard 0.
//!
//! Each connection slot holds one [`SlotSessions`] per object: the
//! per-shard [`ObjectSession`]s for that slot's process id, plus the
//! routing/merge policy.

use crate::protocol::OPC_UPDATE;
use apram_model::telemetry::TelemetryRegistry;
use apram_model::{FlightLog, FlightMode};
use apram_objects::spec::{
    native_spec, Args, BuildCtx, Merge, ObjectInstance, ObjectSession, ObjectSpec, OpOutput,
    OP_READ, OP_UPDATE,
};

/// How the table assembles its objects.
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// Object names to serve, in table-index order (each a
    /// [`apram_objects::spec`] registry name).
    pub objects: Vec<String>,
    /// Shards per object.
    pub shards: usize,
    /// Connection slots (= processes per shard memory).
    pub slots: usize,
    /// Key slots per shard for the keyed objects.
    pub keys: usize,
    /// Flight-recorder mode on every shard memory.
    pub flight: FlightMode,
    /// Per-process flight ring capacity.
    pub flight_capacity: usize,
}

impl TableConfig {
    /// A table of the given objects with the recorder off.
    pub fn new(objects: &[&str], shards: usize, slots: usize) -> Self {
        TableConfig {
            objects: objects.iter().map(|s| s.to_string()).collect(),
            shards,
            slots,
            keys: 64,
            flight: FlightMode::Off,
            flight_capacity: apram_model::flight::DEFAULT_FLIGHT_CAPACITY,
        }
    }

    /// Attach a flight recorder to every shard memory.
    pub fn flight(mut self, mode: FlightMode, capacity: usize) -> Self {
        self.flight = mode;
        self.flight_capacity = capacity;
        self
    }
}

/// One named object, striped across shards.
pub struct ShardedObject {
    name: String,
    spec: &'static ObjectSpec,
    shards: Vec<Box<dyn ObjectInstance>>,
}

impl ShardedObject {
    /// The object's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The spec this object was built from.
    pub fn spec(&self) -> &'static ObjectSpec {
        self.spec
    }

    /// Drain every shard's flight recorder (empty entries for shards
    /// with nothing recorded; `None`s are skipped).
    pub fn drain_flight(&self) -> Vec<FlightLog> {
        self.shards.iter().filter_map(|s| s.flight_log()).collect()
    }

    /// Delta-aware Prometheus export of every shard into `registry`
    /// under this object's label (shards aggregate into one series).
    /// Drains the recorders as a side effect — callers running audit
    /// windows must drain via [`ShardedObject::drain_flight`] *instead
    /// of* scraping, not as well.
    pub fn export_prometheus(&self, registry: &TelemetryRegistry) {
        for shard in &self.shards {
            let _ = shard.snapshot_prometheus(registry, &self.name);
        }
    }

    /// Memory-global reader validation retries, summed over shards.
    pub fn read_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.read_retries()).sum()
    }

    /// MWMR hardware tickets drawn, summed over shards.
    pub fn ticket_draws(&self) -> u64 {
        self.shards.iter().map(|s| s.ticket_draws()).sum()
    }

    /// The per-shard sessions + routing policy for one connection slot.
    pub fn sessions(&self, slot: usize) -> SlotSessions {
        SlotSessions {
            sessions: self.shards.iter().map(|s| s.session(slot)).collect(),
            merge: self.spec.merge,
            slot,
        }
    }
}

/// The table: objects in wire-index order.
pub struct ObjectTable {
    objects: Vec<ShardedObject>,
}

impl ObjectTable {
    /// Build every configured object. Fails on an unknown object name
    /// or a config that cannot address the table (more than 256
    /// objects), serve its slots, or give a keyed object a key slot.
    pub fn build(cfg: &TableConfig) -> Result<ObjectTable, String> {
        if cfg.objects.len() > 256 {
            return Err(format!(
                "table has {} objects; the wire protocol addresses at most 256",
                cfg.objects.len()
            ));
        }
        if cfg.shards == 0 || cfg.slots == 0 {
            return Err("shards and slots must be positive".into());
        }
        let mut objects = Vec::with_capacity(cfg.objects.len());
        for name in &cfg.objects {
            let spec = native_spec(name).ok_or_else(|| format!("unknown object '{name}'"))?;
            let tier = spec.tiers()[0];
            if let Some(max) = tier.max_procs().filter(|&max| cfg.slots > max) {
                return Err(format!(
                    "object '{name}' runs on the {} tier, which serves at most {max} \
                     processes; {} slots requested",
                    tier.label(),
                    cfg.slots
                ));
            }
            if spec.args == Args::KeyValue && cfg.keys == 0 {
                return Err(format!(
                    "object '{name}' is keyed and needs at least one key slot; 0 keys requested"
                ));
            }
            let build = BuildCtx::new(cfg.slots, tier)
                .flight(cfg.flight, cfg.flight_capacity)
                .keys(cfg.keys);
            let shard_count = if spec.merge == Merge::Single {
                1
            } else {
                cfg.shards
            };
            let shards = (0..shard_count).map(|_| spec.build(&build)).collect();
            objects.push(ShardedObject {
                name: name.clone(),
                spec,
                shards,
            });
        }
        Ok(ObjectTable { objects })
    }

    /// All objects, in wire-index order.
    pub fn objects(&self) -> &[ShardedObject] {
        &self.objects
    }

    /// Look up by wire index.
    pub fn object(&self, idx: u8) -> Option<&ShardedObject> {
        self.objects.get(idx as usize)
    }

    /// Look up a name's wire index.
    pub fn index_of(&self, name: &str) -> Option<u8> {
        self.objects
            .iter()
            .position(|o| o.name == name)
            .map(|i| i as u8)
    }

    /// Find an object by name.
    pub fn by_name(&self, name: &str) -> Option<&ShardedObject> {
        self.objects.iter().find(|o| o.name == name)
    }
}

/// One connection slot's live sessions on one object: executes wire ops
/// with the object's routing and merge policy.
pub struct SlotSessions {
    sessions: Vec<Box<dyn ObjectSession>>,
    merge: Merge,
    slot: usize,
}

impl SlotSessions {
    fn affinity(&self) -> usize {
        self.slot % self.sessions.len()
    }

    fn keyed(&self, a: u64) -> usize {
        (a % self.sessions.len() as u64) as usize
    }

    /// Execute one wire op ([`OPC_UPDATE`]/[`OPC_READ`](crate::protocol::OPC_READ)
    /// with arguments `a`, `b`) and produce the merged output.
    pub fn execute(&mut self, opcode: u8, a: u64, b: u64) -> OpOutput {
        let code = if opcode == OPC_UPDATE {
            OP_UPDATE
        } else {
            OP_READ
        };
        match (self.merge, opcode) {
            (Merge::Keyed, _) => {
                let s = self.keyed(a);
                self.sessions[s].op(code, a, b)
            }
            (Merge::Single, _) => self.sessions[0].op(code, a, b),
            (Merge::Affinity, _) | (Merge::Sum | Merge::Max, OPC_UPDATE) => {
                let s = self.affinity();
                self.sessions[s].op(code, a, b)
            }
            (Merge::Sum, _) => {
                let mut total = 0u64;
                for s in self.sessions.iter_mut() {
                    match s.op(code, a, b) {
                        OpOutput::Val(v) => total += v,
                        other => return other,
                    }
                }
                OpOutput::Val(total)
            }
            (Merge::Max, _) => {
                let mut best: Option<u64> = None;
                let mut opt = false;
                for s in self.sessions.iter_mut() {
                    match s.op(code, a, b) {
                        OpOutput::Val(v) => best = Some(best.map_or(v, |b| b.max(v))),
                        OpOutput::Opt(v) => {
                            opt = true;
                            if let Some(v) = v {
                                best = Some(best.map_or(v, |b| b.max(v)));
                            }
                        }
                        other => return other,
                    }
                }
                if opt {
                    OpOutput::Opt(best)
                } else {
                    OpOutput::Val(best.unwrap_or(0))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OPC_READ;
    use apram_objects::spec::native_specs;

    fn table(objects: &[&str], shards: usize, slots: usize) -> ObjectTable {
        ObjectTable::build(&TableConfig::new(objects, shards, slots)).unwrap()
    }

    #[test]
    fn build_rejects_unknown_objects() {
        let err = match ObjectTable::build(&TableConfig::new(&["nope"], 2, 2)) {
            Err(e) => e,
            Ok(_) => panic!("unknown object must not build"),
        };
        assert!(err.contains("nope"));
    }

    #[test]
    fn build_rejects_more_slots_than_a_buffered_cell_serves() {
        let err = match ObjectTable::build(&TableConfig::new(&["afek"], 1, 62)) {
            Err(e) => e,
            Ok(_) => panic!("62 processes on the buffered tier must not build"),
        };
        assert!(
            err.contains("afek") && err.contains("62") && err.contains("61"),
            "{err}"
        );
        // The packed tier has no slot bitmask and no ceiling.
        assert!(ObjectTable::build(&TableConfig::new(&["counter"], 1, 62)).is_ok());
    }

    #[test]
    fn build_rejects_a_keyed_object_without_key_slots() {
        for name in ["lwwmap", "lwwmap-direct"] {
            let mut cfg = TableConfig::new(&[name], 2, 2);
            cfg.keys = 0;
            let err = match ObjectTable::build(&cfg) {
                Err(e) => e,
                Ok(_) => panic!("{name} with no key slot must not build"),
            };
            assert!(err.contains(&format!("'{name}'")), "{err}");
        }
        // An object that takes no key ignores the count.
        let mut cfg = TableConfig::new(&["counter"], 2, 2);
        cfg.keys = 0;
        assert!(ObjectTable::build(&cfg).is_ok());
    }

    /// Every row merges as it declares: all four slots update in turn,
    /// then all read, over three shards and over one.
    #[test]
    fn every_row_merges_as_it_declares() {
        for spec in native_specs() {
            let name = spec.name();
            let run = |shards| {
                let t = table(&[name], shards, 4);
                let obj = t.by_name(name).unwrap();
                let mut slots: Vec<_> = (0..4).map(|slot| obj.sessions(slot)).collect();
                let update = |(i, s): (usize, &mut SlotSessions)| {
                    s.execute(OPC_UPDATE, i as u64 + 1, 10 * i as u64)
                };
                let acks: Vec<_> = slots.iter_mut().enumerate().map(update).collect();
                let read = |s: &mut SlotSessions| s.execute(OPC_READ, 2, 0);
                let reads: Vec<_> = slots.iter_mut().map(read).collect();
                (obj.shard_count(), acks, reads)
            };
            let (shard_count, acks, reads) = run(3);
            let (_, _, unsharded) = run(1);
            match spec.merge {
                // A clock shard counts its own ticks: the merged `now`
                // is the latest tick anywhere.
                Merge::Max if spec.args == Args::None => {
                    let latest = acks.iter().map(OpOutput::encode).max().unwrap();
                    assert_eq!(reads, vec![OpOutput::Val(latest); 4], "{name}");
                }
                Merge::Sum | Merge::Max | Merge::Keyed => assert_eq!(reads, unsharded, "{name}"),
                // Slots 0 and 3 share shard 0; slot 1 is alone on shard 1.
                Merge::Affinity => {
                    let view = |slots: [Option<u64>; 4]| OpOutput::View(slots.to_vec());
                    assert_eq!(reads[0], view([Some(1), None, None, Some(4)]), "{name}");
                    assert_eq!(reads[1], view([None, Some(2), None, None]), "{name}");
                }
                Merge::Single => {
                    assert_eq!(shard_count, 1, "{name}");
                    assert_eq!(reads, unsharded, "{name}");
                }
            }
        }
    }

    #[test]
    fn counter_read_sums_across_shards() {
        let t = table(&["counter"], 3, 4);
        let obj = t.by_name("counter").unwrap();
        // Four slots with different affinity shards all inc once.
        let mut outs = Vec::new();
        for slot in 0..4 {
            let mut s = obj.sessions(slot);
            s.execute(OPC_UPDATE, 0, 0);
            outs.push(s.execute(OPC_READ, 0, 0));
        }
        // The last reader has seen every inc (sequential test): 4.
        assert_eq!(outs.pop(), Some(OpOutput::Val(4)));
    }

    #[test]
    fn maxreg_read_maxes_across_shards() {
        let t = table(&["maxreg"], 2, 4);
        let obj = t.by_name("maxreg").unwrap();
        let mut s0 = obj.sessions(0); // affinity shard 0
        let mut s1 = obj.sessions(1); // affinity shard 1
        assert_eq!(s0.execute(OPC_READ, 0, 0), OpOutput::Opt(None));
        s0.execute(OPC_UPDATE, 10, 0);
        s1.execute(OPC_UPDATE, 25, 0);
        assert_eq!(s0.execute(OPC_READ, 0, 0), OpOutput::Opt(Some(25)));
    }

    #[test]
    fn keyed_objects_route_by_key() {
        let t = table(&["lwwmap-direct"], 2, 2);
        let obj = t.by_name("lwwmap-direct").unwrap();
        let mut a = obj.sessions(0);
        let mut b = obj.sessions(1);
        a.execute(OPC_UPDATE, 7, 700);
        a.execute(OPC_UPDATE, 8, 800);
        // A different slot reads through the same key routing.
        assert_eq!(b.execute(OPC_READ, 7, 0), OpOutput::Opt(Some(700)));
        assert_eq!(b.execute(OPC_READ, 8, 0), OpOutput::Opt(Some(800)));
    }

    #[test]
    fn clock_merges_as_val_max() {
        let t = table(&["clock"], 2, 2);
        let obj = t.by_name("clock").unwrap();
        let mut s0 = obj.sessions(0);
        let mut s1 = obj.sessions(1);
        let OpOutput::Val(t0) = s0.execute(OPC_UPDATE, 0, 0) else {
            panic!("tick returns Val")
        };
        let OpOutput::Val(t1) = s1.execute(OPC_UPDATE, 0, 0) else {
            panic!("tick returns Val")
        };
        let OpOutput::Val(now) = s0.execute(OPC_READ, 0, 0) else {
            panic!("now returns Val")
        };
        assert!(now >= t0.max(t1));
    }

    #[test]
    fn wire_indices_are_stable() {
        let t = table(&["counter", "maxreg", "clock"], 1, 1);
        assert_eq!(t.index_of("counter"), Some(0));
        assert_eq!(t.index_of("clock"), Some(2));
        assert!(t.object(3).is_none());
        assert_eq!(t.object(1).unwrap().name(), "maxreg");
    }
}
