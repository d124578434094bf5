//! Cross-session MLP batching: classification and IATF-generation requests
//! from *all* tenants funnel through one worker that drains the whole queue
//! each cycle and runs same-artifact jobs back-to-back.
//!
//! Why this is free, determinism-wise: the classifier's scanline path
//! already assembles features SoA and runs `Mlp::predict_batch`, which is
//! bit-identical to row-at-a-time inference at every width (PR 6's pinned
//! invariant), and its scratch pools are bit-identical whether warm or cold
//! (PR 2). Grouping jobs by artifact therefore changes only *when* work
//! runs — same-artifact jobs reuse warm predictor pools and the frames the
//! first job paged in — never the bytes a job returns. That is what lets
//! the equivalence gate demand byte-identical responses under any
//! interleaving.

use crate::engine::SharedSession;
use crate::error::ServeError;
use ifet_obs as obs;
use ifet_tf::TransferFunction1D;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A batched unit of MLP work.
pub(crate) enum JobKind {
    /// Data-space extraction mask at `step` with certainty threshold `tau`.
    Classify { step: u32, tau: f32 },
    /// IATF-generated transfer function for the frame at `step`.
    GenerateTf { step: u32 },
}

/// What a job produced.
pub(crate) enum JobOut {
    Mask { voxels: u64, words: Vec<u64> },
    Tf(TransferFunction1D),
}

pub(crate) struct Job {
    session: Arc<SharedSession>,
    kind: JobKind,
    /// The submitter's obs scope: the job's counters belong to its capture.
    scope: obs::Scope,
    reply: mpsc::Sender<Result<JobOut, ServeError>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    stop: bool,
}

/// Monotonic batching counters (engine-wide, surfaced by `report-stats`).
#[derive(Default)]
pub(crate) struct BatchCounters {
    pub cycles: AtomicU64,
    pub jobs: AtomicU64,
    pub rows: AtomicU64,
}

pub(crate) struct Batcher {
    shared: Arc<(Mutex<Queue>, Condvar)>,
    pub counters: Arc<BatchCounters>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    pub fn start() -> Self {
        let shared = Arc::new((Mutex::new(Queue::default()), Condvar::new()));
        let counters = Arc::new(BatchCounters::default());
        let worker = {
            let shared = Arc::clone(&shared);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("ifet-serve-batch".into())
                .spawn(move || worker_loop(&shared, &counters))
                .expect("spawn batch worker")
        };
        Self {
            shared,
            counters,
            worker: Some(worker),
        }
    }

    /// Enqueue a job and wake the worker. The caller blocks on the reply
    /// channel, so per-tenant in-flight accounting covers time spent queued.
    pub fn submit(&self, session: Arc<SharedSession>, kind: JobKind) -> Result<JobOut, ServeError> {
        let (lock, cv) = &*self.shared;
        let reply_rx = {
            let (tx, rx) = mpsc::channel();
            let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
            q.jobs.push_back(Job {
                session,
                kind,
                scope: obs::current(),
                reply: tx,
            });
            cv.notify_one();
            rx
        };
        match reply_rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Session {
                reason: "batch worker unavailable".into(),
            }),
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        {
            let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
            q.stop = true;
        }
        cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &(Mutex<Queue>, Condvar), counters: &BatchCounters) {
    let (lock, cv) = shared;
    loop {
        // Drain the *entire* queue in one sweep: everything pending at this
        // instant, across all tenants, becomes one batch cycle.
        let batch: Vec<Job> = {
            let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
            while q.jobs.is_empty() && !q.stop {
                q = cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.jobs.is_empty() && q.stop {
                return;
            }
            q.jobs.drain(..).collect()
        };

        // Group by artifact, preserving first-arrival order of groups and
        // arrival order within each group (the sort is stable), so
        // same-artifact jobs run back-to-back against warm predictor pools
        // and resident frames.
        let njobs = batch.len() as u64;
        let mut groups: Vec<String> = Vec::new();
        let mut ranked: Vec<(usize, Job)> = Vec::with_capacity(batch.len());
        for job in batch {
            let key = job.session.key();
            let rank = groups.iter().position(|k| k == key).unwrap_or_else(|| {
                groups.push(key.to_string());
                groups.len() - 1
            });
            ranked.push((rank, job));
        }
        ranked.sort_by_key(|(rank, _)| *rank);
        let rows: u64 = ranked.into_iter().map(|(_, job)| run_job(job)).sum();

        counters.cycles.fetch_add(1, Ordering::Relaxed);
        counters.jobs.fetch_add(njobs, Ordering::Relaxed);
        counters.rows.fetch_add(rows, Ordering::Relaxed);
    }
}

/// Execute one job and send its reply; returns the MLP rows it consumed.
/// The job's counters merge into the submitter's capture before the reply
/// goes out, while the submitter is still blocked waiting for it.
fn run_job(job: Job) -> u64 {
    let obs_scope = job.scope.enter();
    let session = job.session.session();
    let (result, rows) = match job.kind {
        JobKind::Classify { step, tau } => match session.try_extract_data_space(step, tau) {
            Ok(Some(mask)) => {
                let rows = session.series().dims().len() as u64;
                (
                    Ok(JobOut::Mask {
                        voxels: mask.count() as u64,
                        words: mask.words().to_vec(),
                    }),
                    rows,
                )
            }
            Ok(None) => (Err(classify_refusal(job.session.as_ref(), step)), 0),
            Err(e) => (
                Err(ServeError::Session {
                    reason: e.to_string(),
                }),
                0,
            ),
        },
        JobKind::GenerateTf { step } => match session.try_adaptive_tf_at_step(step) {
            Ok(Some(tf)) => {
                let rows = session.series().dims().len() as u64;
                (Ok(JobOut::Tf(tf)), rows)
            }
            Ok(None) => (Err(generate_refusal(job.session.as_ref(), step)), 0),
            Err(e) => (
                Err(ServeError::Session {
                    reason: e.to_string(),
                }),
                0,
            ),
        },
    };
    drop(obs_scope);
    let _ = job.reply.send(result);
    rows
}

fn classify_refusal(shared: &SharedSession, step: u32) -> ServeError {
    if shared.session().classifier().is_none() {
        ServeError::Session {
            reason: "no trained classifier in this session".into(),
        }
    } else {
        ServeError::BadRequest {
            reason: format!("step {step} not in the series"),
        }
    }
}

fn generate_refusal(shared: &SharedSession, step: u32) -> ServeError {
    if shared.session().iatf().is_none() {
        ServeError::Session {
            reason: "no trained IATF in this session".into(),
        }
    } else {
        ServeError::BadRequest {
            reason: format!("step {step} not in the series"),
        }
    }
}
