//! Dependency-tracked delta classification of configuration-bit upsets.
//!
//! The wide engine ([`crate::engine_wide`]) runs 63 experiments per
//! simulation pass, but only for upsets it can express as lane overlays.
//! The seed's triage called everything outside LUT tables / FF inits /
//! BRAM content "structural" and paid a full recompile (and usually a
//! scalar observe window) per bit — on a small design that is ~94 % of the
//! active closure, so batching bought almost nothing.
//!
//! [`DeltaMap`] removes that cliff. One *recording* trace over the golden
//! compiled network notes, for every configuration bit the compiler reads,
//! which network attachment points (`Root`s: a LUT pin mux, an FF control
//! mux, a BRAM interface mux, an output IOB entry) depend on it. Then a
//! bit flip is classified without recompiling:
//!
//! * **No recorded reader** — the golden compile never read the bit.
//!   Compilation is a deterministic adaptive reader: a run that never
//!   reads a bit cannot behave differently when that bit changes, so the
//!   corrupted compile is bit-for-bit the golden one. Benign, proven.
//! * **Read by some roots** — flip the bit in place and re-trace just
//!   those roots read-only, resolving against *golden* node ids. Each
//!   root that now resolves to a different source becomes a `DeltaOp`;
//!   the set of ops is a per-lane network edit the wide engine applies as
//!   lane-masked source overrides. Zero ops ⇒ the corrupted network is
//!   behaviourally the golden one ⇒ benign.
//! * **Inexpressible** — the re-trace reaches a node the golden network
//!   never compiled (a LUT/FF/BRAM outside the golden cone), or creates a
//!   LUT→LUT edge violating the golden topological order (the corrupted
//!   compile could go iterative), or re-modes a LUT. Only these remain
//!   structural and pay the scalar recompile path.
//!
//! Soundness leans on two facts. First, a corrupted network produced by a
//! pure reroute references only golden nodes, so the golden node arrays
//! can host every lane's variant. Second, any new LUT-feeding edge is
//! admitted only when its source precedes the target in the golden
//! topological order, so the union graph over all lanes stays acyclic and
//! the golden settle order is a valid schedule for every lane.

use std::collections::HashMap;

use crate::bits::{
    decode_mux, decode_pip, ff_dmux_offset, input_mux_offset, out_sel_offset, outmux_offset,
    pip_offset, BitRole, MuxPin, MuxSel, PipSel, MUX_FIELD_BITS, OUTMUX_BITS_PER_WIRE,
    PIP_BITS_PER_WIRE,
};
use crate::compile::{const_src, Compiled, Src, MAX_TRACE_DEPTH};
use crate::device::Device;
use crate::engine_wide::WideTarget;
use crate::frames::{
    bram_if_addr_off, bram_if_din_off, BitLocus, Edge, IobEntry, BRAM_IF_EN_OFF, BRAM_IF_WE_OFF,
    IOB_ENTRY_BITS,
};
use crate::geometry::{Dir, Tile, BRAM_WIDTH, OUTMUX_WIRES_PER_DIR, WIRES_PER_DIR};
use crate::halflatch::HlSite;
use crate::permfault::FaultSite;

/// A network attachment point whose source the compiler derives from
/// configuration bits — the unit of re-tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Root {
    LutPin { lut: u32, pin: u8 },
    LutData { lut: u32 },
    LutWe { lut: u32 },
    FfD { ff: u32 },
    FfCe { ff: u32 },
    FfSr { ff: u32 },
    BramAddr { bram: u32, i: u8 },
    BramDin { bram: u32, i: u8 },
    BramWe { bram: u32 },
    BramEn { bram: u32 },
    OutEntry { row: u16, wire: u8 },
}

/// One source rebinding in a lane's corrupted network, expressed against
/// golden node ids.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeltaOp {
    LutPin {
        lut: u32,
        pin: u8,
        src: Src,
    },
    LutData {
        lut: u32,
        src: Src,
    },
    LutWe {
        lut: u32,
        src: Src,
    },
    FfD {
        ff: u32,
        src: Src,
    },
    FfCe {
        ff: u32,
        src: Src,
    },
    FfSr {
        ff: u32,
        src: Src,
    },
    BramAddr {
        bram: u32,
        i: u8,
        src: Src,
    },
    BramDin {
        bram: u32,
        i: u8,
        src: Src,
    },
    BramWe {
        bram: u32,
        src: Src,
    },
    BramEn {
        bram: u32,
        src: Src,
    },
    /// The corrupted output-port vector (may differ in length from the
    /// golden one; the campaign comparator handles length mismatch).
    /// `seeds` holds the sources of *all* enabled east entries — including
    /// those whose port binding a later scan entry overwrites — because
    /// the compiler traces every enabled entry and the traced cones keep
    /// clocking even when their port binding is shadowed.
    Outputs {
        outs: Vec<(Src, bool)>,
        seeds: Vec<Src>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UpsetKind {
    /// A state overlay: XOR one lane bit of packed table/init/content.
    State(WideTarget),
    /// A network edit: lane-masked source overrides.
    Reroute(Vec<DeltaOp>),
}

/// A single-bit upset the wide engine can carry in one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUpset(pub(crate) UpsetKind);

impl LaneUpset {
    pub(crate) fn state(t: WideTarget) -> LaneUpset {
        LaneUpset(UpsetKind::State(t))
    }
}

/// Classification of one global configuration-bit flip.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaClass {
    /// Expressible as a wide-engine lane: run it 63-per-pass.
    Lane(LaneUpset),
    /// Provably inert: the compiled network never reads the bit, or the
    /// flip re-derives an identical network.
    Benign,
    /// Needs the scalar recompile path.
    Structural,
}

/// Re-trace failure: the corrupted path leaves the golden network.
struct Incompat;

/// Read-only wire/mux tracer resolving against golden node ids, optionally
/// recording every configuration bit it reads under a fixed root.
///
/// Mirrors the compiler's `Builder` trace functions statement for
/// statement (perm-fault short-circuits, outmux-before-PIP priority,
/// depth-limited loop cut) — the recorded read set is exactly the
/// compiler's read set, which is what makes "no recorded reader ⇒ benign"
/// a proof rather than a heuristic.
struct Tracer<'a> {
    dev: &'a Device,
    net: &'a Compiled,
    bram_ids: &'a HashMap<(u16, u16), u32>,
    rec: Option<(&'a mut Vec<(usize, Root)>, Root)>,
}

impl<'a> Tracer<'a> {
    fn read_only(
        dev: &'a Device,
        net: &'a Compiled,
        bram_ids: &'a HashMap<(u16, u16), u32>,
    ) -> Self {
        Tracer {
            dev,
            net,
            bram_ids,
            rec: None,
        }
    }

    fn recording(
        dev: &'a Device,
        net: &'a Compiled,
        bram_ids: &'a HashMap<(u16, u16), u32>,
        sink: &'a mut Vec<(usize, Root)>,
        root: Root,
    ) -> Self {
        Tracer {
            dev,
            net,
            bram_ids,
            rec: Some((sink, root)),
        }
    }

    fn rec_tile(&mut self, tile: Tile, off: usize, n: usize) {
        if let Some((sink, root)) = self.rec.as_mut() {
            let root = *root;
            for k in 0..n {
                sink.push((self.dev.config.tile_bit_index(tile, off + k), root));
            }
        }
    }

    fn rec_iob(&mut self, edge: Edge, row: usize, wire: usize) {
        if let Some((sink, root)) = self.rec.as_mut() {
            let root = *root;
            for bit in 0..IOB_ENTRY_BITS {
                sink.push((self.dev.config.iob_bit_index(edge, row, wire, bit), root));
            }
        }
    }

    fn rec_bram(&mut self, col: usize, block: usize, off: usize, n: usize) {
        if let Some((sink, root)) = self.rec.as_mut() {
            let root = *root;
            for k in 0..n {
                sink.push((self.dev.config.bram_if_index(col, block, off + k), root));
            }
        }
    }

    fn out_wire_src(&mut self, tile: Tile, flat: usize, depth: usize) -> Result<Src, Incompat> {
        if let Some(v) = self.dev.perm_faults.get(FaultSite::Wire {
            tile,
            wire: flat as u8,
        }) {
            return Ok(const_src(v));
        }
        if depth > MAX_TRACE_DEPTH {
            return Ok(Src::Zero);
        }
        let dir = Dir::from_index(flat / WIRES_PER_DIR);
        let idx = flat % WIRES_PER_DIR;
        if idx < OUTMUX_WIRES_PER_DIR {
            self.rec_tile(tile, outmux_offset(dir, idx), OUTMUX_BITS_PER_WIRE);
            let e = self.dev.config.read_tile_field(
                tile,
                outmux_offset(dir, idx),
                OUTMUX_BITS_PER_WIRE,
            );
            if e & 1 == 1 {
                let sel = ((e >> 1) & 3) as u8;
                return self.slice_out_src(tile, sel / 2, sel % 2);
            }
        }
        self.rec_tile(tile, pip_offset(flat), PIP_BITS_PER_WIRE);
        let p = self
            .dev
            .config
            .read_tile_field(tile, pip_offset(flat), PIP_BITS_PER_WIRE);
        if p & 1 == 1 {
            match decode_pip(((p >> 1) & 0x7f) as u8) {
                PipSel::Wire(d, i) => return self.in_wire_src(tile, d, i as usize, depth + 1),
                PipSel::BramOut(bit) => {
                    if bit < 16 {
                        if let Some((bc, blk)) = self.dev.geom.bram_at_home_tile(tile) {
                            let id = *self
                                .bram_ids
                                .get(&(bc as u16, blk as u16))
                                .ok_or(Incompat)?;
                            return Ok(Src::Bram { id, bit });
                        }
                    }
                    return Ok(Src::Zero);
                }
                PipSel::Floating => return Ok(Src::Zero),
            }
        }
        Ok(Src::Zero)
    }

    fn in_wire_src(
        &mut self,
        tile: Tile,
        dir: Dir,
        idx: usize,
        depth: usize,
    ) -> Result<Src, Incompat> {
        match self.dev.geom.neighbor(tile, dir) {
            Some(nb) => self.out_wire_src(nb, dir.opposite() as usize * WIRES_PER_DIR + idx, depth),
            None => {
                if dir == Dir::West && tile.col == 0 {
                    self.rec_iob(Edge::West, tile.row as usize, idx);
                    let e = self.dev.config.read_iob(Edge::West, tile.row as usize, idx);
                    if e.enabled {
                        return Ok(Src::Input {
                            port: e.port as u16,
                            invert: e.invert,
                        });
                    }
                }
                Ok(Src::Zero)
            }
        }
    }

    fn slice_out_src(&mut self, tile: Tile, slice: u8, out: u8) -> Result<Src, Incompat> {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::SliceOut { tile, slice, out })
        {
            return Ok(const_src(v));
        }
        self.rec_tile(tile, out_sel_offset(slice as usize, out as usize), 1);
        let reg =
            self.dev
                .config
                .read_tile_field(tile, out_sel_offset(slice as usize, out as usize), 1)
                != 0;
        if reg {
            let key = self.dev.ff_index(tile, slice as usize, out as usize);
            match self.net.ff_site_index[key] {
                u32::MAX => Err(Incompat),
                id => Ok(Src::Ff(id)),
            }
        } else {
            self.lut_src(tile, slice, out)
        }
    }

    fn lut_src(&mut self, tile: Tile, slice: u8, lut: u8) -> Result<Src, Incompat> {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::LutOut { tile, slice, lut })
        {
            return Ok(const_src(v));
        }
        let key = self.dev.geom.tile_index(tile) * 4 + slice as usize * 2 + lut as usize;
        match self.net.lut_site_index[key] {
            u32::MAX => Err(Incompat),
            id => Ok(Src::Lut(id)),
        }
    }

    fn mux_src(&mut self, tile: Tile, slice: u8, pin: MuxPin) -> Result<Src, Incompat> {
        self.rec_tile(tile, input_mux_offset(slice as usize, pin), MUX_FIELD_BITS);
        let v = self.dev.config.read_tile_field(
            tile,
            input_mux_offset(slice as usize, pin),
            MUX_FIELD_BITS,
        ) as u8;
        match decode_mux(v) {
            MuxSel::Wire(d, i) => self.in_wire_src(tile, d, i as usize, 0),
            MuxSel::Floating => Ok(Src::Zero),
            MuxSel::HalfLatch { invert } => Ok(Src::HalfLatch {
                site: HlSite::Slice {
                    tile,
                    slice,
                    pin: pin.index() as u8,
                },
                invert,
            }),
        }
    }

    fn bram_mux_src(
        &mut self,
        col: usize,
        block: usize,
        off: usize,
        pin: u8,
    ) -> Result<Src, Incompat> {
        self.rec_bram(col, block, off, MUX_FIELD_BITS);
        let v = self
            .dev
            .config
            .read_bram_if_field(col, block, off, MUX_FIELD_BITS) as u8;
        let home = self.dev.geom.bram_home_tile(col, block);
        match decode_mux(v) {
            MuxSel::Wire(d, i) => self.in_wire_src(home, d, i as usize, 0),
            MuxSel::Floating => Ok(Src::Zero),
            MuxSel::HalfLatch { invert } => Ok(Src::HalfLatch {
                site: HlSite::Bram {
                    col: col as u16,
                    block: block as u16,
                    pin,
                },
                invert,
            }),
        }
    }
}

/// The per-design dependency map: configuration bit → network roots that
/// read it, plus the golden caches needed to re-derive any root in
/// microseconds.
#[derive(Debug, Clone)]
pub struct DeltaMap {
    net: Compiled,
    /// Golden topological position of each compiled LUT.
    pos: Vec<u32>,
    bram_ids: HashMap<(u16, u16), u32>,
    /// Dense (col, block) list in the same first-appearance order the wide
    /// engine derives, so `WideTarget::BramBit::mem` indices agree.
    blocks: Vec<(u16, u16)>,
    /// (global bit, reading root), sorted by bit for range lookup.
    deps: Vec<(usize, Root)>,
    /// All east-IOB entries in scan order (row-major), enabled or not.
    east_entries: Vec<IobEntry>,
    /// Golden source per *enabled* east entry, parallel to `east_entries`.
    east_srcs: Vec<Option<Src>>,
}

impl DeltaMap {
    /// Record the golden compile's complete configuration read set. One
    /// trace pass over the compiled network, comparable in cost to a
    /// single compile.
    pub fn build(dev: &mut Device) -> DeltaMap {
        dev.ensure_compiled();
        let net = dev.compiled.as_ref().unwrap().clone();
        let dev = &*dev;

        let mut pos = vec![0u32; net.luts.len()];
        for (i, &li) in net.order.iter().enumerate() {
            pos[li as usize] = i as u32;
        }

        let mut bram_ids = HashMap::new();
        let mut blocks: Vec<(u16, u16)> = Vec::new();
        for (id, b) in net.brams.iter().enumerate() {
            bram_ids.insert((b.col, b.block), id as u32);
            if !blocks.contains(&(b.col, b.block)) {
                blocks.push((b.col, b.block));
            }
        }

        let mut deps: Vec<(usize, Root)> = Vec::new();
        for id in 0..net.luts.len() {
            let (tile, slice, lut, dynamic) = {
                let l = &net.luts[id];
                (l.tile, l.slice, l.lut, l.mode.is_dynamic())
            };
            for p in 0..4u8 {
                let mut tr = Tracer::recording(
                    dev,
                    &net,
                    &bram_ids,
                    &mut deps,
                    Root::LutPin {
                        lut: id as u32,
                        pin: p,
                    },
                );
                let src = tr
                    .mux_src(tile, slice, MuxPin::LutPin { lut, pin: p })
                    .unwrap_or(Src::Zero);
                debug_assert_eq!(src, net.luts[id].pins[p as usize]);
            }
            if dynamic {
                let data_pin = if lut == 0 { MuxPin::Bx } else { MuxPin::By };
                let we_pin = if lut == 0 { MuxPin::Srx } else { MuxPin::Sry };
                let mut tr = Tracer::recording(
                    dev,
                    &net,
                    &bram_ids,
                    &mut deps,
                    Root::LutData { lut: id as u32 },
                );
                let _ = tr.mux_src(tile, slice, data_pin);
                let mut tr = Tracer::recording(
                    dev,
                    &net,
                    &bram_ids,
                    &mut deps,
                    Root::LutWe { lut: id as u32 },
                );
                let _ = tr.mux_src(tile, slice, we_pin);
            }
        }
        for id in 0..net.ffs.len() {
            let (tile, slice, ff) = ff_site(dev, net.ffs[id].state_idx);
            let mut tr =
                Tracer::recording(dev, &net, &bram_ids, &mut deps, Root::FfD { ff: id as u32 });
            tr.rec_tile(tile, ff_dmux_offset(slice as usize, ff as usize), 1);
            let dmux =
                dev.config
                    .read_tile_field(tile, ff_dmux_offset(slice as usize, ff as usize), 1)
                    != 0;
            let _ = if dmux {
                tr.mux_src(tile, slice, if ff == 0 { MuxPin::Bx } else { MuxPin::By })
            } else {
                tr.lut_src(tile, slice, ff)
            };
            let mut tr = Tracer::recording(
                dev,
                &net,
                &bram_ids,
                &mut deps,
                Root::FfCe { ff: id as u32 },
            );
            let _ = tr.mux_src(tile, slice, if ff == 0 { MuxPin::Cex } else { MuxPin::Cey });
            let mut tr = Tracer::recording(
                dev,
                &net,
                &bram_ids,
                &mut deps,
                Root::FfSr { ff: id as u32 },
            );
            let _ = tr.mux_src(tile, slice, if ff == 0 { MuxPin::Srx } else { MuxPin::Sry });
        }
        for id in 0..net.brams.len() {
            let (col, block) = (net.brams[id].col as usize, net.brams[id].block as usize);
            for i in 0..8u8 {
                let mut tr = Tracer::recording(
                    dev,
                    &net,
                    &bram_ids,
                    &mut deps,
                    Root::BramAddr { bram: id as u32, i },
                );
                let _ = tr.bram_mux_src(col, block, bram_if_addr_off(i as usize), i);
            }
            for i in 0..16u8 {
                let mut tr = Tracer::recording(
                    dev,
                    &net,
                    &bram_ids,
                    &mut deps,
                    Root::BramDin { bram: id as u32, i },
                );
                let _ = tr.bram_mux_src(col, block, bram_if_din_off(i as usize), 8 + i);
            }
            let mut tr = Tracer::recording(
                dev,
                &net,
                &bram_ids,
                &mut deps,
                Root::BramWe { bram: id as u32 },
            );
            let _ = tr.bram_mux_src(col, block, BRAM_IF_WE_OFF, 24);
            let mut tr = Tracer::recording(
                dev,
                &net,
                &bram_ids,
                &mut deps,
                Root::BramEn { bram: id as u32 },
            );
            let _ = tr.bram_mux_src(col, block, BRAM_IF_EN_OFF, 25);
        }

        let rows = dev.geom.rows;
        let last_col = dev.geom.cols - 1;
        let mut east_entries = Vec::with_capacity(rows * WIRES_PER_DIR);
        let mut east_srcs = vec![None; rows * WIRES_PER_DIR];
        for row in 0..rows {
            for wire in 0..WIRES_PER_DIR {
                let e = dev.config.read_iob(Edge::East, row, wire);
                east_entries.push(e);
                if e.enabled {
                    let root = Root::OutEntry {
                        row: row as u16,
                        wire: wire as u8,
                    };
                    let mut tr = Tracer::recording(dev, &net, &bram_ids, &mut deps, root);
                    let src = tr
                        .out_wire_src(
                            Tile::new(row, last_col),
                            Dir::East as usize * WIRES_PER_DIR + wire,
                            0,
                        )
                        .unwrap_or(Src::Zero);
                    east_srcs[row * WIRES_PER_DIR + wire] = Some(src);
                }
            }
        }

        deps.sort_unstable();
        deps.dedup();

        DeltaMap {
            net,
            pos,
            bram_ids,
            blocks,
            deps,
            east_entries,
            east_srcs,
        }
    }

    /// Classify a global configuration-bit flip against `dev`, which must
    /// hold the same golden configuration the map was built from. The
    /// configuration is probed by a temporary in-place flip (restored
    /// before returning); the compiled cache is never touched.
    pub fn classify(&self, dev: &mut Device, global: usize) -> DeltaClass {
        match dev.config.describe(global) {
            BitLocus::Clb { tile, role } => match role {
                BitRole::LutTable { slice, lut, bit } => {
                    let key = dev.geom.tile_index(tile) * 4 + slice as usize * 2 + lut as usize;
                    match self.net.lut_site_index[key] {
                        u32::MAX => DeltaClass::Benign,
                        id => DeltaClass::Lane(LaneUpset::state(WideTarget::LutTable {
                            lut: id,
                            bit,
                        })),
                    }
                }
                BitRole::FfInit { slice, ff } => {
                    let key = dev.ff_index(tile, slice as usize, ff as usize);
                    match self.net.ff_site_index[key] {
                        u32::MAX => DeltaClass::Benign,
                        id => DeltaClass::Lane(LaneUpset::state(WideTarget::FfInit { ff: id })),
                    }
                }
                BitRole::SliceReserved { .. } | BitRole::Pad => DeltaClass::Benign,
                BitRole::LutModeBit { slice, lut, bit } => {
                    let key = dev.geom.tile_index(tile) * 4 + slice as usize * 2 + lut as usize;
                    match self.net.lut_site_index[key] {
                        u32::MAX => DeltaClass::Benign,
                        id => {
                            // Bit 0 toggles Logic↔ROM (behaviourally
                            // identical static tables). Anything touching
                            // dynamicity re-modes the evaluator: scalar.
                            if bit == 0 && !self.net.luts[id as usize].mode.is_dynamic() {
                                DeltaClass::Benign
                            } else {
                                DeltaClass::Structural
                            }
                        }
                    }
                }
                _ => self.classify_deps(dev, global),
            },
            BitLocus::BramContent { col, block, bit } => {
                match self.blocks.iter().position(|&k| k == (col, block)) {
                    None => DeltaClass::Benign,
                    Some(mi) => DeltaClass::Lane(LaneUpset::state(WideTarget::BramBit {
                        mem: mi as u32,
                        addr: (bit as usize / BRAM_WIDTH) as u16,
                        plane: (bit as usize % BRAM_WIDTH) as u8,
                    })),
                }
            }
            BitLocus::Iob {
                edge: Edge::East,
                row,
                wire,
                ..
            } => {
                dev.config.flip_bit(global);
                let r = self.recompute_outputs(dev, Some((row, wire)), &[]);
                dev.config.flip_bit(global);
                match r {
                    Err(Incompat) => DeltaClass::Structural,
                    Ok(None) => DeltaClass::Benign,
                    Ok(Some(op)) => DeltaClass::Lane(LaneUpset(UpsetKind::Reroute(vec![op]))),
                }
            }
            _ => self.classify_deps(dev, global),
        }
    }

    /// Classify via the recorded read set: no reader ⇒ benign; otherwise
    /// flip in place and re-derive exactly the reading roots.
    fn classify_deps(&self, dev: &mut Device, global: usize) -> DeltaClass {
        let lo = self.deps.partition_point(|&(b, _)| b < global);
        let hi = self.deps.partition_point(|&(b, _)| b <= global);
        if lo == hi {
            return DeltaClass::Benign;
        }
        dev.config.flip_bit(global);
        let r = self.delta_ops(dev, lo, hi);
        dev.config.flip_bit(global);
        match r {
            Err(Incompat) => DeltaClass::Structural,
            Ok(ops) if ops.is_empty() => DeltaClass::Benign,
            Ok(ops) => DeltaClass::Lane(LaneUpset(UpsetKind::Reroute(ops))),
        }
    }

    /// Re-trace the roots `deps[lo..hi]` against the (already corrupted)
    /// configuration, diffing each against its golden source.
    fn delta_ops(&self, dev: &Device, lo: usize, hi: usize) -> Result<Vec<DeltaOp>, Incompat> {
        let mut ops = Vec::new();
        let mut entries: Vec<(u16, u8)> = Vec::new();
        for di in lo..hi {
            let root = self.deps[di].1;
            let mut tr = Tracer::read_only(dev, &self.net, &self.bram_ids);
            match root {
                Root::LutPin { lut, pin } => {
                    let l = &self.net.luts[lut as usize];
                    let src = tr.mux_src(l.tile, l.slice, MuxPin::LutPin { lut: l.lut, pin })?;
                    if src != l.pins[pin as usize] {
                        self.check_feed(lut, src)?;
                        ops.push(DeltaOp::LutPin { lut, pin, src });
                    }
                }
                Root::LutData { lut } => {
                    let l = &self.net.luts[lut as usize];
                    let pin = if l.lut == 0 { MuxPin::Bx } else { MuxPin::By };
                    let src = tr.mux_src(l.tile, l.slice, pin)?;
                    if src != l.data {
                        self.check_feed(lut, src)?;
                        ops.push(DeltaOp::LutData { lut, src });
                    }
                }
                Root::LutWe { lut } => {
                    let l = &self.net.luts[lut as usize];
                    let pin = if l.lut == 0 { MuxPin::Srx } else { MuxPin::Sry };
                    let src = tr.mux_src(l.tile, l.slice, pin)?;
                    if src != l.we {
                        self.check_feed(lut, src)?;
                        ops.push(DeltaOp::LutWe { lut, src });
                    }
                }
                Root::FfD { ff } => {
                    let f = &self.net.ffs[ff as usize];
                    let (tile, slice, fi) = ff_site(dev, f.state_idx);
                    let dmux = dev.config.read_tile_field(
                        tile,
                        ff_dmux_offset(slice as usize, fi as usize),
                        1,
                    ) != 0;
                    let src = if dmux {
                        tr.mux_src(tile, slice, if fi == 0 { MuxPin::Bx } else { MuxPin::By })?
                    } else {
                        tr.lut_src(tile, slice, fi)?
                    };
                    if src != f.d {
                        ops.push(DeltaOp::FfD { ff, src });
                    }
                }
                Root::FfCe { ff } => {
                    let f = &self.net.ffs[ff as usize];
                    let (tile, slice, fi) = ff_site(dev, f.state_idx);
                    let src =
                        tr.mux_src(tile, slice, if fi == 0 { MuxPin::Cex } else { MuxPin::Cey })?;
                    if src != f.ce {
                        ops.push(DeltaOp::FfCe { ff, src });
                    }
                }
                Root::FfSr { ff } => {
                    let f = &self.net.ffs[ff as usize];
                    let (tile, slice, fi) = ff_site(dev, f.state_idx);
                    let src =
                        tr.mux_src(tile, slice, if fi == 0 { MuxPin::Srx } else { MuxPin::Sry })?;
                    if src != f.sr {
                        ops.push(DeltaOp::FfSr { ff, src });
                    }
                }
                Root::BramAddr { bram, i } => {
                    let b = &self.net.brams[bram as usize];
                    let src = tr.bram_mux_src(
                        b.col as usize,
                        b.block as usize,
                        bram_if_addr_off(i as usize),
                        i,
                    )?;
                    if src != b.addr[i as usize] {
                        ops.push(DeltaOp::BramAddr { bram, i, src });
                    }
                }
                Root::BramDin { bram, i } => {
                    let b = &self.net.brams[bram as usize];
                    let src = tr.bram_mux_src(
                        b.col as usize,
                        b.block as usize,
                        bram_if_din_off(i as usize),
                        8 + i,
                    )?;
                    if src != b.din[i as usize] {
                        ops.push(DeltaOp::BramDin { bram, i, src });
                    }
                }
                Root::BramWe { bram } => {
                    let b = &self.net.brams[bram as usize];
                    let src =
                        tr.bram_mux_src(b.col as usize, b.block as usize, BRAM_IF_WE_OFF, 24)?;
                    if src != b.we {
                        ops.push(DeltaOp::BramWe { bram, src });
                    }
                }
                Root::BramEn { bram } => {
                    let b = &self.net.brams[bram as usize];
                    let src =
                        tr.bram_mux_src(b.col as usize, b.block as usize, BRAM_IF_EN_OFF, 25)?;
                    if src != b.en {
                        ops.push(DeltaOp::BramEn { bram, src });
                    }
                }
                Root::OutEntry { row, wire } => {
                    if !entries.contains(&(row, wire)) {
                        entries.push((row, wire));
                    }
                }
            }
        }
        if !entries.is_empty() {
            if let Some(op) = self.recompute_outputs(dev, None, &entries)? {
                ops.push(op);
            }
        }
        Ok(ops)
    }

    /// Admit a new LUT-feeding edge only if it respects the golden
    /// topological order — keeps every lane's network acyclic (and
    /// non-iterative) under the golden settle schedule.
    fn check_feed(&self, lut: u32, src: Src) -> Result<(), Incompat> {
        if let Src::Lut(j) = src {
            if self.pos[j as usize] >= self.pos[lut as usize] {
                return Err(Incompat);
            }
        }
        Ok(())
    }

    /// Rebuild the output-port vector under the current (possibly
    /// corrupted) configuration, mirroring the compiler's east-IOB scan.
    /// `reread` re-decodes that one entry from configuration memory;
    /// `retrace` re-traces those entries' wires. Everything else comes
    /// from the golden cache. Returns `None` when identical to golden,
    /// else a [`DeltaOp::Outputs`] carrying both the port vector and the
    /// full enabled-entry source list (the lane's reachability seeds).
    fn recompute_outputs(
        &self,
        dev: &Device,
        reread: Option<(u16, u8)>,
        retrace: &[(u16, u8)],
    ) -> Result<Option<DeltaOp>, Incompat> {
        let last_col = dev.geom.cols - 1;
        let mut port_srcs: Vec<(u8, Src, bool)> = Vec::new();
        for row in 0..dev.geom.rows {
            for wire in 0..WIRES_PER_DIR {
                let idx = row * WIRES_PER_DIR + wire;
                let key = (row as u16, wire as u8);
                let e = if reread == Some(key) {
                    dev.config.read_iob(Edge::East, row, wire)
                } else {
                    self.east_entries[idx]
                };
                if !e.enabled {
                    continue;
                }
                let src = if retrace.contains(&key) || self.east_srcs[idx].is_none() {
                    let mut tr = Tracer::read_only(dev, &self.net, &self.bram_ids);
                    tr.out_wire_src(
                        Tile::new(row, last_col),
                        Dir::East as usize * WIRES_PER_DIR + wire,
                        0,
                    )?
                } else {
                    self.east_srcs[idx].unwrap()
                };
                port_srcs.push((e.port, src, e.invert));
            }
        }
        let seeds: Vec<Src> = port_srcs.iter().map(|&(_, s, _)| s).collect();
        let num_ports = port_srcs.iter().map(|&(p, _, _)| p as usize + 1).max();
        let mut outs = vec![(Src::Zero, false); num_ports.unwrap_or(0)];
        for (p, src, inv) in port_srcs {
            outs[p as usize] = (src, inv);
        }
        Ok(if outs == self.net.outputs {
            None
        } else {
            Some(DeltaOp::Outputs { outs, seeds })
        })
    }
}

/// Recover (tile, slice, ff) from a flip-flop state index (inverse of
/// `Device::ff_index`).
fn ff_site(dev: &Device, state_idx: usize) -> (Tile, u8, u8) {
    let ff = (state_idx % 2) as u8;
    let slice = ((state_idx / 2) % 2) as u8;
    let tile = dev.geom.tile_at(state_idx / 4);
    (tile, slice, ff)
}
