//! Canonical binary encoding for [`Design`].
//!
//! The content-addressed cache needs one byte string per design: equal
//! designs must encode to equal bytes (so they hash to equal keys), and
//! decoding must reproduce the design *exactly* —
//! `decode_design(&encode_design(d)) == d`. Unlike a textual format,
//! which renders floats through decimal, this encoding is fully
//! bit-level:
//!
//! * an interned-name table up front (every object name appears once, in
//!   first-use order), then ordinal references everywhere else;
//! * a fixed field order matching the iteration order of the design's
//!   own accessors, so equal designs produce identical bytes;
//! * `f64` fields stored as raw IEEE-754 bits — no decimal round trip;
//! * little-endian fixed-width integers throughout.
//!
//! The decoder treats its input as untrusted: every count is
//! bounds-checked against the remaining buffer (no allocation from a
//! decoded length), every ordinal is range-checked, and trailing bytes
//! are rejected — malformed input yields a typed
//! [`StoreError`](crate::StoreError), never a panic.

use crate::codec::{Dec, Enc};
use crate::error::StoreError;
use slif_core::{
    AccessFreq, AccessKind, AccessTarget, Bus, ClassKind, ConcurrencyTag, Design, Memory,
    NodeKind, PortDirection, Processor, WeightEntry,
};
use std::collections::HashMap;

/// The canonical encoding's own version byte (bumped on any layout
/// change; the cache's object frame carries a second, container-level
/// version).
pub const CANONICAL_VERSION: u8 = 1;

#[derive(Default)]
struct Interner {
    order: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.order.len() as u32;
        self.order.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

/// Encodes a design to its canonical bytes.
pub fn encode_design(design: &Design) -> Vec<u8> {
    let g = design.graph();
    let mut names = Interner::default();
    let mut body = Enc::default();

    // Ordinal maps: position in iteration order, which is insertion
    // order for every arena in the design.
    let class_ord: HashMap<_, _> = design
        .class_ids()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect();
    let node_ord: HashMap<_, _> = g
        .node_ids()
        .enumerate()
        .map(|(i, n)| (n, i as u32))
        .collect();
    let port_ord: HashMap<_, _> = g
        .port_ids()
        .enumerate()
        .map(|(i, p)| (p, i as u32))
        .collect();

    body.u32(names.intern(design.name()));

    body.u32(class_ord.len() as u32);
    for k in design.class_ids() {
        let c = design.class(k);
        body.u32(names.intern(c.name()));
        body.u8(match c.kind() {
            ClassKind::StdProcessor => 0,
            ClassKind::CustomHw => 1,
            ClassKind::Memory => 2,
        });
    }

    body.u32(port_ord.len() as u32);
    for p in g.port_ids() {
        let port = g.port(p);
        body.u32(names.intern(port.name()));
        body.u8(match port.direction() {
            PortDirection::In => 0,
            PortDirection::Out => 1,
            PortDirection::InOut => 2,
        });
        body.u32(port.bits());
    }

    body.u32(node_ord.len() as u32);
    for n in g.node_ids() {
        let node = g.node(n);
        body.u32(names.intern(node.name()));
        match node.kind() {
            NodeKind::Behavior { process } => body.u8(u8::from(!process)),
            NodeKind::Variable { words, word_bits } => {
                body.u8(2);
                body.u64(words);
                body.u32(word_bits);
            }
        }
        let icts: Vec<_> = node.ict().iter().collect();
        body.u32(icts.len() as u32);
        for e in icts {
            body.u32(class_ord[&e.class]);
            body.u64(e.val);
        }
        let sizes: Vec<_> = node.size().iter().collect();
        body.u32(sizes.len() as u32);
        for e in sizes {
            body.u32(class_ord[&e.class]);
            body.u64(e.val);
            match e.datapath {
                Some(dp) => {
                    body.u8(1);
                    body.u64(dp);
                }
                None => body.u8(0),
            }
        }
    }

    body.u32(g.channel_count() as u32);
    for c in g.channel_ids() {
        let ch = g.channel(c);
        body.u32(node_ord[&ch.src()]);
        match ch.dst() {
            AccessTarget::Node(n) => {
                body.u8(0);
                body.u32(node_ord[&n]);
            }
            AccessTarget::Port(p) => {
                body.u8(1);
                body.u32(port_ord[&p]);
            }
        }
        body.u8(match ch.kind() {
            AccessKind::Call => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
            AccessKind::Message => 3,
        });
        body.f64(ch.freq().avg);
        body.u64(ch.freq().min);
        body.u64(ch.freq().max);
        body.u32(ch.bits());
        match ch.tag().id() {
            None => body.u8(0),
            Some(group) => {
                body.u8(1);
                body.u32(group);
            }
        }
    }

    body.u32(design.processor_count() as u32);
    for p in design.processor_ids() {
        let proc = design.processor(p);
        body.u32(names.intern(proc.name()));
        body.u32(class_ord[&proc.class()]);
        let flags = u8::from(proc.size_constraint().is_some())
            | (u8::from(proc.pin_constraint().is_some()) << 1);
        body.u8(flags);
        if let Some(s) = proc.size_constraint() {
            body.u64(s);
        }
        if let Some(pins) = proc.pin_constraint() {
            body.u32(pins);
        }
    }

    body.u32(design.memory_count() as u32);
    for m in design.memory_ids() {
        let mem = design.memory(m);
        body.u32(names.intern(mem.name()));
        body.u32(class_ord[&mem.class()]);
        match mem.size_constraint() {
            Some(s) => {
                body.u8(1);
                body.u64(s);
            }
            None => body.u8(0),
        }
    }

    body.u32(design.bus_count() as u32);
    for b in design.bus_ids() {
        let bus = design.bus(b);
        body.u32(names.intern(bus.name()));
        body.u32(bus.bitwidth());
        body.u64(bus.ts());
        body.u64(bus.td());
        match bus.capacity() {
            Some(cap) => {
                body.u8(1);
                body.f64(cap);
            }
            None => body.u8(0),
        }
    }

    // Assemble: version, name table, body.
    let mut out = Enc::default();
    out.u8(CANONICAL_VERSION);
    out.u32(names.order.len() as u32);
    for s in &names.order {
        out.bytes(s.as_bytes());
    }
    out.buf.extend_from_slice(&body.buf);
    out.buf
}

/// Decodes canonical bytes back into a design.
///
/// # Errors
///
/// A typed [`StoreError::Corrupt`] on any malformed input: bad version,
/// truncation, out-of-range ordinals, invalid UTF-8 names, structurally
/// invalid channels, or trailing bytes.
pub fn decode_design(bytes: &[u8]) -> Result<Design, StoreError> {
    let corrupt = |context: &'static str| StoreError::Corrupt { context };
    let mut d = Dec::new(bytes);
    if d.u8("canonical version")? != CANONICAL_VERSION {
        return Err(corrupt("canonical version"));
    }

    let name_count = d.u32("name table length")?;
    let mut names: Vec<String> = Vec::new();
    for _ in 0..name_count {
        let raw = d.bytes("interned name")?;
        let s = String::from_utf8(raw.to_vec()).map_err(|_| corrupt("interned name utf-8"))?;
        names.push(s);
    }
    let name = |idx: u32| -> Result<&str, StoreError> {
        names
            .get(idx as usize)
            .map(String::as_str)
            .ok_or(corrupt("name ordinal"))
    };

    let mut design = Design::new(name(d.u32("design name")?)?);

    let class_count = d.u32("class count")?;
    let mut classes = Vec::new();
    for _ in 0..class_count {
        let n = d.u32("class name")?;
        let kind = match d.u8("class kind")? {
            0 => ClassKind::StdProcessor,
            1 => ClassKind::CustomHw,
            2 => ClassKind::Memory,
            _ => return Err(corrupt("class kind")),
        };
        classes.push(design.add_class(name(n)?, kind));
    }
    let class = |idx: u32| -> Result<_, StoreError> {
        classes
            .get(idx as usize)
            .copied()
            .ok_or(corrupt("class ordinal"))
    };

    let port_count = d.u32("port count")?;
    for _ in 0..port_count {
        let n = d.u32("port name")?;
        let dir = match d.u8("port direction")? {
            0 => PortDirection::In,
            1 => PortDirection::Out,
            2 => PortDirection::InOut,
            _ => return Err(corrupt("port direction")),
        };
        let bits = d.u32("port bits")?;
        design
            .graph_mut()
            .try_add_port(name(n)?, dir, bits)
            .map_err(|_| corrupt("duplicate port name"))?;
    }
    let ports: Vec<_> = design.graph().port_ids().collect();

    let node_count = d.u32("node count")?;
    let mut nodes = Vec::new();
    for _ in 0..node_count {
        let n = d.u32("node name")?;
        let kind = match d.u8("node kind")? {
            0 => NodeKind::process(),
            1 => NodeKind::procedure(),
            2 => {
                let words = d.u64("variable words")?;
                let word_bits = d.u32("variable word bits")?;
                NodeKind::array(words, word_bits)
            }
            _ => return Err(corrupt("node kind")),
        };
        let id = design
            .graph_mut()
            .try_add_node(name(n)?, kind)
            .map_err(|_| corrupt("duplicate node name"))?;
        nodes.push(id);
        let ict_count = d.u32("ict count")?;
        for _ in 0..ict_count {
            let k = class(d.u32("ict class")?)?;
            let val = d.u64("ict value")?;
            design.graph_mut().node_mut(id).ict_mut().set(k, val);
        }
        let size_count = d.u32("size count")?;
        for _ in 0..size_count {
            let k = class(d.u32("size class")?)?;
            let val = d.u64("size value")?;
            let entry = match d.u8("size datapath flag")? {
                0 => WeightEntry::new(k, val),
                1 => {
                    let dp = d.u64("size datapath")?;
                    if dp > val {
                        return Err(corrupt("size datapath"));
                    }
                    WeightEntry::with_datapath(k, val, dp)
                }
                _ => return Err(corrupt("size datapath flag")),
            };
            design.graph_mut().node_mut(id).size_mut().insert(entry);
        }
    }

    let channel_count = d.u32("channel count")?;
    for _ in 0..channel_count {
        let src = nodes
            .get(d.u32("channel src")? as usize)
            .copied()
            .ok_or(corrupt("channel src ordinal"))?;
        let dst: AccessTarget = match d.u8("channel dst tag")? {
            0 => nodes
                .get(d.u32("channel dst")? as usize)
                .copied()
                .ok_or(corrupt("channel dst ordinal"))?
                .into(),
            1 => ports
                .get(d.u32("channel dst")? as usize)
                .copied()
                .ok_or(corrupt("channel dst ordinal"))?
                .into(),
            _ => return Err(corrupt("channel dst tag")),
        };
        let kind = match d.u8("channel kind")? {
            0 => AccessKind::Call,
            1 => AccessKind::Read,
            2 => AccessKind::Write,
            3 => AccessKind::Message,
            _ => return Err(corrupt("channel kind")),
        };
        let avg = d.f64("channel freq avg")?;
        let min = d.u64("channel freq min")?;
        let max = d.u64("channel freq max")?;
        let bits = d.u32("channel bits")?;
        let tag = match d.u8("channel tag")? {
            0 => ConcurrencyTag::SEQUENTIAL,
            1 => ConcurrencyTag::group(d.u32("channel tag group")?),
            _ => return Err(corrupt("channel tag")),
        };
        let c = design
            .graph_mut()
            .add_channel(src, dst, kind)
            .map_err(|_| corrupt("channel endpoints"))?;
        let ch = design.graph_mut().channel_mut(c);
        *ch.freq_mut() = AccessFreq::new(avg, min, max);
        ch.set_bits(bits);
        ch.set_tag(tag);
    }

    let proc_count = d.u32("processor count")?;
    for _ in 0..proc_count {
        let n = d.u32("processor name")?;
        let k = class(d.u32("processor class")?)?;
        if design.class(k).kind() == ClassKind::Memory {
            return Err(corrupt("processor class kind"));
        }
        let flags = d.u8("processor flags")?;
        if flags > 3 {
            return Err(corrupt("processor flags"));
        }
        let mut proc = Processor::new(name(n)?, k);
        if flags & 1 != 0 {
            proc = proc.with_size_constraint(d.u64("processor size constraint")?);
        }
        if flags & 2 != 0 {
            proc = proc.with_pin_constraint(d.u32("processor pin constraint")?);
        }
        design.add_processor_instance(proc);
    }

    let mem_count = d.u32("memory count")?;
    for _ in 0..mem_count {
        let n = d.u32("memory name")?;
        let k = class(d.u32("memory class")?)?;
        if design.class(k).kind() != ClassKind::Memory {
            return Err(corrupt("memory class kind"));
        }
        let mut mem = Memory::new(name(n)?, k);
        match d.u8("memory size flag")? {
            0 => {}
            1 => mem = mem.with_size_constraint(d.u64("memory size constraint")?),
            _ => return Err(corrupt("memory size flag")),
        }
        design.add_memory_instance(mem);
    }

    let bus_count = d.u32("bus count")?;
    for _ in 0..bus_count {
        let n = d.u32("bus name")?;
        let width = d.u32("bus width")?;
        if width == 0 {
            return Err(corrupt("bus width"));
        }
        let ts = d.u64("bus ts")?;
        let td = d.u64("bus td")?;
        let mut bus = Bus::new(name(n)?, width, ts, td);
        match d.u8("bus capacity flag")? {
            0 => {}
            1 => bus = bus.with_capacity(d.f64("bus capacity")?),
            _ => return Err(corrupt("bus capacity flag")),
        }
        design.add_bus(bus);
    }

    d.finish()?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;
    use slif_formats::{read_bytes, write_bytes, Encoding, FormatLimits, Strictness};

    fn corpus() -> Vec<Design> {
        let mut designs = Vec::new();
        for seed in [0u64, 1, 2, 7, 42, 99] {
            let (d, _) = DesignGenerator::new(seed).build();
            designs.push(d);
        }
        let (big, _) = DesignGenerator::new(5)
            .behaviors(20)
            .variables(12)
            .processors(3)
            .memories(2)
            .buses(3)
            .build();
        designs.push(big);
        designs.push(Design::new("empty"));
        designs
    }

    #[test]
    fn decode_encode_is_identity() {
        for (i, d) in corpus().iter().enumerate() {
            let bytes = encode_design(d);
            let back = decode_design(&bytes).unwrap_or_else(|e| panic!("design {i}: {e}"));
            assert_eq!(&back, d, "design {i} did not round-trip");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        for d in corpus() {
            assert_eq!(encode_design(&d), encode_design(&d));
            // A fresh structural copy via the `.slif` text round trip
            // encodes to the same bytes: content addressing keys on
            // value, not on construction history.
            let text = write_bytes(&d, None, Encoding::Text).unwrap();
            let copy = read_bytes(&text, Strictness::Strict, &FormatLimits::default())
                .unwrap()
                .design;
            assert_eq!(encode_design(&d), encode_design(&copy));
        }
    }

    #[test]
    fn different_designs_encode_differently() {
        let designs = corpus();
        for (i, a) in designs.iter().enumerate() {
            for (j, b) in designs.iter().enumerate() {
                if i != j && a != b {
                    assert_ne!(encode_design(a), encode_design(b), "designs {i}/{j}");
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let (d, _) = DesignGenerator::new(3).build();
        let bytes = encode_design(&d);
        for len in 0..bytes.len() {
            assert!(
                decode_design(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (d, _) = DesignGenerator::new(3).build();
        let mut bytes = encode_design(&d);
        bytes.push(0x00);
        assert_eq!(
            decode_design(&bytes),
            Err(StoreError::Corrupt {
                context: "trailing bytes"
            })
        );
    }

    #[test]
    fn random_mutations_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (d, _) = DesignGenerator::new(11).build();
        let good = encode_design(&d);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..500 {
            let mut bad = good.clone();
            for _ in 0..rng.gen_range(1usize..8) {
                let pos = rng.gen_range(0usize..bad.len());
                bad[pos] = rng.gen_range(0u32..256) as u8;
            }
            // Either decodes to some design or errors — never panics.
            let _ = decode_design(&bad);
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let (d, _) = DesignGenerator::new(1).build();
        let mut bytes = encode_design(&d);
        bytes[0] = 9;
        assert!(decode_design(&bytes).is_err());
    }
}
