//! Admission front-end: what the service runs, for whom, and how hard.

/// One tenant's workload template. Each maps to a complete simulated
/// world (an [`mtmpi::Experiment`] grid plus a body) sized so thousands
/// of instances fit in one service run; all three are the paper's
/// workload families (pt2pt §5, RMA §6, Graph500 BFS §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobTemplate {
    /// Two ranks ping-pong `msgs` messages of `bytes` each over the
    /// global critical section.
    Pt2pt { msgs: u32, bytes: u64 },
    /// One-sided traffic: the origin rank issues `ops` contiguous puts
    /// of `bytes` to a passive target running an asynchronous progress
    /// thread (the paper's §6 contention shape).
    Rma { ops: u32, bytes: u64 },
    /// Single-rank hybrid BFS over a scale-`scale` Kronecker graph with
    /// `threads` worker threads sharing the runtime.
    Bfs { scale: u32, threads: u32 },
}

impl JobTemplate {
    /// Short label used in digests and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobTemplate::Pt2pt { .. } => "pt2pt",
            JobTemplate::Rma { .. } => "rma",
            JobTemplate::Bfs { .. } => "bfs",
        }
    }
}

/// The fully-resolved description of one tenant: template plus the
/// tenant's own seed (every tenant is an isolated deterministic world).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant id (dense, `0..tenants`).
    pub id: u32,
    /// Per-tenant master seed (derived from the service seed and id).
    pub seed: u64,
    /// Workload template.
    pub template: JobTemplate,
}

/// Service configuration: pool shape, scheduling quantum, and the
/// admission stream.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dedicated OS-thread workers in the pool.
    pub workers: u32,
    /// Cooperative-yield quantum: max scheduler events a worker runs one
    /// tenant for before re-enqueueing it (the fuel machinery is the
    /// preemption point).
    pub quantum: u64,
    /// Total tenants admitted over the run.
    pub tenants: u32,
    /// Admission window: max tenants launched (fiber stacks taken) but
    /// not yet finished. Bounds peak memory footprint; completion
    /// of one tenant admits the next.
    pub max_live: u32,
    /// Service master seed; tenant `i` derives its world seed from it.
    pub seed: u64,
    /// Templates assigned round-robin by tenant id.
    pub templates: Vec<JobTemplate>,
    /// Per-tenant event bound (`None` = unlimited): a hung tenant fails
    /// with a typed [`mtmpi::SimError::FuelExhausted`] report instead of
    /// wedging a worker forever.
    pub fuel: Option<u64>,
    /// Capture per-tenant timelines and compute prof blame
    /// (`TenantReport::blame_wait_ns`). Costs memory per live tenant.
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            quantum: 512,
            tenants: 64,
            max_live: 64,
            seed: 0x5EED,
            templates: vec![JobTemplate::Pt2pt { msgs: 8, bytes: 64 }],
            fuel: Some(10_000_000),
            trace: false,
        }
    }
}

impl ServeConfig {
    /// Default config with an explicit pool size and tenant count.
    pub fn new(workers: u32, tenants: u32) -> Self {
        Self {
            workers,
            tenants,
            ..Self::default()
        }
    }

    /// Set the scheduling quantum (events per grant).
    pub fn quantum(mut self, q: u64) -> Self {
        self.quantum = q;
        self
    }

    /// Set the admission window.
    pub fn max_live(mut self, n: u32) -> Self {
        self.max_live = n;
        self
    }

    /// Set the service seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Replace the template rotation.
    pub fn templates(mut self, t: Vec<JobTemplate>) -> Self {
        self.templates = t;
        self
    }

    /// Set the per-tenant fuel bound.
    pub fn fuel(mut self, f: Option<u64>) -> Self {
        self.fuel = f;
        self
    }

    /// Capture per-tenant timelines (prof blame in reports).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The resolved spec of tenant `id`: template by round-robin, seed
    /// by a splitmix64 finalizer over `(service seed, id)` so adjacent
    /// tenants get well-separated streams.
    pub fn tenant_spec(&self, id: u32) -> JobSpec {
        assert!(!self.templates.is_empty(), "no job templates configured");
        let template = self.templates[id as usize % self.templates.len()].clone();
        JobSpec {
            id,
            seed: splitmix64(self.seed ^ (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            template,
        }
    }

    /// Panic on nonsensical shapes (zero workers/tenants/quantum).
    pub fn validate(&self) {
        assert!(self.workers > 0, "serve: zero workers");
        assert!(self.tenants > 0, "serve: zero tenants");
        assert!(self.quantum > 0, "serve: zero quantum");
        assert!(self.max_live > 0, "serve: zero admission window");
        assert!(!self.templates.is_empty(), "serve: no job templates");
    }
}

/// splitmix64 finalizer (public domain constants): one-shot bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_seeds_are_distinct_and_stable() {
        let cfg = ServeConfig::default();
        let a = cfg.tenant_spec(0);
        let b = cfg.tenant_spec(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(
            a.seed,
            cfg.tenant_spec(0).seed,
            "pure function of (seed, id)"
        );
    }

    #[test]
    fn templates_rotate_round_robin() {
        let cfg = ServeConfig::default().templates(vec![
            JobTemplate::Pt2pt { msgs: 1, bytes: 8 },
            JobTemplate::Rma { ops: 1, bytes: 8 },
        ]);
        assert_eq!(cfg.tenant_spec(0).template.label(), "pt2pt");
        assert_eq!(cfg.tenant_spec(1).template.label(), "rma");
        assert_eq!(cfg.tenant_spec(2).template.label(), "pt2pt");
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_rejected() {
        ServeConfig::new(0, 1).validate();
    }
}
