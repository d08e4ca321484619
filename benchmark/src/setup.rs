//! Set-up: generate the calibrated corpus, encode it, write and fsync the
//! snapshot — repeated, so `setup_s` is a median — then decode the file
//! once into the owned reference graph the oracle queries.

use crate::config::Profile;
use crate::stats::median;
use crate::trace::Tracer;
use frappe_store::{snapshot, GraphStore};
use frappe_synth::{generate, SynthSpec};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Seconds spent in each phase of one set-up repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupRep {
    pub generate_s: f64,
    pub encode_s: f64,
    pub write_s: f64,
}

impl SetupRep {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.encode_s + self.write_s
    }
}

pub struct Setup {
    pub reps: Vec<SetupRep>,
    pub snapshot: PathBuf,
    pub snapshot_bytes: u64,
    pub nodes: usize,
    pub edges: usize,
    /// `unfreeze` + `freeze` on the generated graph, when asked for.
    pub freeze_s: Option<f64>,
    /// The planted line of Fig. 5's failing call.
    pub call_line: u32,
}

impl Setup {
    /// Median over the repetitions of generate + encode + write + fsync.
    pub fn setup_s(&self) -> f64 {
        median(&self.reps.iter().map(SetupRep::total_s).collect::<Vec<_>>())
    }

    pub fn median_of(&self, f: impl Fn(&SetupRep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }
}

/// Runs `reps` set-up repetitions into `workdir/kernel.fsnap`. The graph
/// depends on the scale alone, never on the request seed.
pub fn run(
    profile: &Profile,
    reps: usize,
    workdir: &Path,
    measure_freeze: bool,
    tracer: &Tracer,
) -> Result<Setup, String> {
    let path = workdir.join("kernel.fsnap");
    let spec = SynthSpec::scaled(profile.scale);
    let mut out = Setup {
        reps: Vec::with_capacity(reps),
        snapshot: path.clone(),
        snapshot_bytes: 0,
        nodes: 0,
        edges: 0,
        freeze_s: None,
        call_line: 0,
    };
    for rep in 0..reps.max(1) {
        let (mut synth, generate_ns) = tracer.time("synth", "generate", || generate(&spec));
        let (bytes, encode_ns) = tracer.time("store", "snapshot::encode", || {
            snapshot::encode(&synth.graph)
        });
        let (written, write_ns) = tracer.time("store", "write+fsync", || {
            let mut f = std::fs::File::create(&path)?;
            f.write_all(&bytes)?;
            f.sync_all()
        });
        written.map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.reps.push(SetupRep {
            generate_s: generate_ns as f64 / 1e9,
            encode_s: encode_ns as f64 / 1e9,
            write_s: write_ns as f64 / 1e9,
        });
        out.snapshot_bytes = bytes.len() as u64;
        out.nodes = synth.graph.node_count();
        out.edges = synth.graph.edge_count();
        out.call_line = synth.landmarks.failing_call_line;
        if measure_freeze && rep == 0 {
            let ((), ns) = tracer.time("store", "unfreeze+freeze", || {
                synth.graph.unfreeze();
                synth.graph.freeze();
            });
            out.freeze_s = Some(ns as f64 / 1e9);
        }
    }
    Ok(out)
}

/// Decodes the snapshot into the owned reference graph; returns it with the
/// decode time in ms (`store.open_owned_ms`).
pub fn load_reference(snapshot_path: &Path, tracer: &Tracer) -> Result<(GraphStore, f64), String> {
    let (g, ns) = tracer.time("store", "snapshot::load", || snapshot::load(snapshot_path));
    let g = g.map_err(|e| format!("decoding {}: {e}", snapshot_path.display()))?;
    Ok((g, ns as f64 / 1e6))
}
