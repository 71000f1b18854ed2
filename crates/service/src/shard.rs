//! The one front of the engine (DESIGN.md §5.12): a single bounded queue
//! drained by one worker loop, shared by every caller that queues work.
//!
//! [`ShardedEngine`] is the front `gpgpuc serve` and `gpgpuc batch` run;
//! [`Engine::run_batch`] runs the same [`Front`] over a borrowed engine.
//! Either way every worker runs [`Front::serve`], the only place queued
//! work reaches [`Engine::handle`]. [`ShardConfig::shards`] is only a
//! multiplier: the front runs `shards × workers_per_shard` workers over
//! one queue of `shards × queue_capacity` slots.
//!
//! Live traffic ([`ShardedEngine::submit`]) is admitted in order:
//!
//! 1. a deadline already spent is refused before it reaches the queue;
//! 2. below a 1.0 watermark, a queue past that fill fraction sheds early;
//! 3. a free slot admits;
//! 4. at hard capacity, expired jobs are swept out, then admission waits
//!    at most `admission_wait_ms` for a slot;
//! 5. otherwise the request is shed `overloaded`, with a `retry_after_ms`
//!    hint from the backlog and the observed service time.
//!
//! A manifest is backpressure, never a shed: [`ShardedEngine::push`] does
//! step 1, then blocks for a slot. Shutdown closes the queue and drains
//! it — or, past an optional drain timeout, sheds whatever is still
//! queued.

use crate::engine::{deadline_expired, Engine};
use crate::queue::BoundedQueue;
use crate::request::{CompileRequest, CompileResponse, ErrorClass};
use gpgpu_core::Json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The front's shape and admission-control knobs, layered over a
/// [`crate::ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Multiplier on both the worker count and the engine's
    /// `queue_capacity`.
    pub shards: usize,
    /// Worker threads per unit of `shards`.
    pub workers_per_shard: usize,
    /// Fraction of the queue's capacity past which admission stops
    /// accepting early. At 1.0 (the default) early shedding is disabled:
    /// a full queue is swept of expired requests and waited on for the
    /// bounded admission interval before the request is shed.
    pub admission_watermark: f64,
    /// How long admission may wait for a slot when the queue is at hard
    /// capacity before shedding, in milliseconds. This bounds the
    /// worst-case time a client spends blocked on admission.
    pub admission_wait_ms: u64,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 2,
            workers_per_shard: 2,
            admission_watermark: 1.0,
            admission_wait_ms: 10,
        }
    }
}

/// One queued unit of work: the request plus its response channel.
struct Job {
    req: CompileRequest,
    enqueued: Instant,
    deadline_ms: Option<u64>,
    tx: mpsc::Sender<CompileResponse>,
}

/// One bounded queue and the gauges its workers keep.
pub(crate) struct Front {
    queue: BoundedQueue<Job>,
    /// Workers draining the queue — the `retry_after_ms` divisor.
    workers: usize,
    /// Jobs currently inside a worker (popped but not yet answered).
    inflight: AtomicUsize,
    /// EWMA of observed per-job service time, in microseconds — the
    /// basis of the `retry_after_ms` hint. 0 until the first sample.
    ewma_service_us: AtomicU64,
}

impl Front {
    /// A front of `capacity` queue slots drained by `workers` workers.
    pub(crate) fn new(capacity: usize, workers: usize) -> Front {
        Front {
            queue: BoundedQueue::new(capacity),
            workers: workers.max(1),
            inflight: AtomicUsize::new(0),
            ewma_service_us: AtomicU64::new(0),
        }
    }

    /// The worker loop: serve jobs until the queue is closed and drained.
    pub(crate) fn serve(&self, engine: &Engine) {
        while let Some(job) = self.queue.pop() {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let resp = engine.handle(job.req, job.enqueued);
            self.observe_service_time(started.elapsed().as_micros() as u64);
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            // A client that gave up (dropped the receiver) is not an error.
            let _ = job.tx.send(resp);
        }
    }

    fn observe_service_time(&self, micros: u64) {
        let old = self.ewma_service_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            micros
        } else {
            // 4/5 history, 1/5 sample: smooth but still tracks a phase
            // change within a handful of requests.
            (old.saturating_mul(4).saturating_add(micros)) / 5
        };
        self.ewma_service_us.store(new, Ordering::Relaxed);
    }

    /// Queued + in-flight.
    fn backlog(&self) -> usize {
        self.queue.depth() + self.inflight.load(Ordering::Relaxed)
    }

    /// Admission step 1, shared by every push: a budget already spent
    /// never reaches the queue, a worker, or a compile span. Otherwise
    /// the request becomes a job and its response channel.
    fn admit(
        &self,
        engine: &Engine,
        req: CompileRequest,
        enqueued: Instant,
    ) -> Result<(Job, mpsc::Receiver<CompileResponse>), Submitted> {
        let deadline_ms = req.deadline_ms.or(engine.config().default_deadline_ms);
        if let Some(limit) = deadline_ms {
            if deadline_expired(limit, enqueued.elapsed().as_millis() as u64) {
                let resp = CompileResponse::failure(
                    req.id,
                    ErrorClass::Deadline,
                    format!("deadline of {limit} ms already elapsed at admission"),
                );
                engine.book_external(&resp, enqueued);
                return Err(Submitted::Rejected(Box::new(resp)));
            }
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            enqueued,
            deadline_ms,
            tx,
        };
        Ok((job, rx))
    }

    /// The manifest push: admission step 1, then block for a slot.
    ///
    /// Only the front's owner closes the queue, once it has stopped
    /// pushing (`ShardedEngine`'s drop, or `run_batch` after its last
    /// push), so no push meets a closed queue.
    pub(crate) fn push(
        &self,
        engine: &Engine,
        req: CompileRequest,
        enqueued: Instant,
    ) -> Submitted {
        let (job, rx) = match self.admit(engine, req, enqueued) {
            Ok(admitted) => admitted,
            Err(refused) => return refused,
        };
        self.queue.push(job);
        Submitted::Queued(rx)
    }

    /// Books and returns one `overloaded` shed. `why` names the refusal.
    fn shed(&self, engine: &Engine, job: Job, why: &str) -> Submitted {
        let detail = format!("queue {why}; retry after the hint");
        let resp = CompileResponse::overloaded(job.req.id, detail, self.retry_after_ms());
        engine.note_shed();
        engine.book_external(&resp, job.enqueued);
        Submitted::Rejected(Box::new(resp))
    }

    /// The backoff hint for a shed: how long the backlog ahead should
    /// take to drain at the observed per-worker service rate, clamped to
    /// [1 ms, 30 s]. Before any service-time sample exists the hint is a
    /// flat 50 ms.
    fn retry_after_ms(&self) -> u64 {
        let ewma_us = match self.ewma_service_us.load(Ordering::Relaxed) {
            0 => return 50,
            us => us,
        };
        let per_worker = self.backlog() as u64 / self.workers as u64 + 1;
        (per_worker.saturating_mul(ewma_us) / 1000).clamp(1, 30_000)
    }

    /// Sweeps expired requests out of the queue, answering each with a
    /// `deadline` failure — no worker ever sees them.
    fn sweep_expired(&self, engine: &Engine) {
        let expired = self.queue.drain_matching(|job| {
            job.deadline_ms.is_some_and(|limit| {
                deadline_expired(limit, job.enqueued.elapsed().as_millis() as u64)
            })
        });
        if expired.is_empty() {
            return;
        }
        engine.note_swept(expired.len() as u64);
        for job in expired {
            let limit = job.deadline_ms.unwrap_or(0);
            let resp = CompileResponse::failure(
                job.req.id,
                ErrorClass::Deadline,
                format!(
                    "deadline of {limit} ms elapsed after {} ms queued; swept before dispatch",
                    job.enqueued.elapsed().as_millis()
                ),
            );
            engine.book_external(&resp, job.enqueued);
            let _ = job.tx.send(resp);
        }
    }

    /// Stops admission (workers drain what is queued, then exit) and
    /// folds the queue's high-water mark into `service_queue_max_depth`.
    pub(crate) fn close(&self, engine: &Engine) {
        self.queue.close();
        engine.note_queue_depth(self.queue.max_depth() as u64);
    }

    /// The live `stats.queue` block.
    fn stats_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::count(self.queue.capacity() as u64)),
            ("depth", Json::count(self.queue.depth() as u64)),
            ("high_water", Json::count(self.queue.max_depth() as u64)),
            (
                "inflight",
                Json::count(self.inflight.load(Ordering::Relaxed) as u64),
            ),
            (
                "ewma_service_us",
                Json::count(self.ewma_service_us.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// The shed past the drain timeout: the server is going away, not
/// saturated, so the hint is the drain horizon rather than the service
/// rate.
fn shutdown_shed(engine: &Engine, id: String, enqueued: Instant) -> CompileResponse {
    let resp = CompileResponse::overloaded(id, "server is shutting down; resubmit elsewhere", 1000);
    engine.note_shed();
    engine.book_external(&resp, enqueued);
    resp
}

/// What [`ShardedEngine::submit`] or [`ShardedEngine::push`] did with a
/// request.
pub enum Submitted {
    /// Admitted: the response arrives on this receiver when a worker
    /// finishes (or when a sweep/shutdown sheds the job).
    Queued(mpsc::Receiver<CompileResponse>),
    /// Refused at admission — an `overloaded` shed (with `retry_after_ms`)
    /// or an already-expired `deadline`. Already booked into the engine
    /// stats; just deliver it.
    Rejected(Box<CompileResponse>),
}

/// The engine behind its one front: one queue, `shards ×
/// workers_per_shard` workers, shed-instead-of-stall admission control.
pub struct ShardedEngine {
    engine: Arc<Engine>,
    front: Arc<Front>,
    config: ShardConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardedEngine {
    /// Starts `shards × workers_per_shard` workers over one queue of
    /// `shards ×` the engine's `queue_capacity` slots, all serving
    /// through the shared `engine`.
    pub fn start(engine: Arc<Engine>, config: ShardConfig) -> ShardedEngine {
        let mut config = config;
        config.shards = config.shards.max(1);
        config.workers_per_shard = config.workers_per_shard.max(1);
        config.admission_watermark = config.admission_watermark.clamp(0.0, 1.0);
        let workers = config.shards * config.workers_per_shard;
        let capacity = config.shards * engine.config().queue_capacity.max(1);
        let front = Arc::new(Front::new(capacity, workers));
        let workers = (0..workers)
            .map(|_| {
                let (engine, front) = (Arc::clone(&engine), Arc::clone(&front));
                std::thread::spawn(move || front.serve(&engine))
            })
            .collect();
        ShardedEngine {
            engine,
            front,
            config,
            workers,
        }
    }

    /// The shared engine (cache, counters, profiler).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Submits one parsed request of live traffic. Never blocks longer
    /// than the bounded admission wait: the request is either queued
    /// (response later via the receiver) or rejected right now with a
    /// structured response.
    ///
    /// `enqueued` anchors the request's deadline (pass the time the line
    /// was *read* so deadlines cover any front-end backlog).
    pub fn submit(&self, req: CompileRequest, enqueued: Instant) -> Submitted {
        let (front, engine) = (&*self.front, &*self.engine);
        let (job, rx) = match front.admit(engine, req, enqueued) {
            Ok(admitted) => admitted,
            Err(refused) => return refused,
        };
        // A watermark below 1.0 stops accepting *before* hard capacity,
        // answering saturation with a hint instead of a stall.
        let watermark = self.config.admission_watermark;
        if watermark < 1.0 {
            let slots = ((front.queue.capacity() as f64) * watermark).ceil() as usize;
            if front.queue.depth() >= slots.max(1) {
                return front.shed(engine, job, "past the admission watermark");
            }
        }
        // The queue is never closed under a submit (see `Front::push`),
        // so a refused push means it is full.
        let job = match front.queue.try_push(job) {
            Ok(()) => return Submitted::Queued(rx),
            Err((job, _)) => job,
        };
        // Hard capacity: expired requests were going to fail anyway, and
        // each one swept is a slot a live request can take.
        front.sweep_expired(engine);
        let wait = Duration::from_millis(self.config.admission_wait_ms);
        match front.queue.push_timeout(job, wait) {
            Ok(()) => Submitted::Queued(rx),
            Err((job, _)) => front.shed(
                engine,
                job,
                "at hard capacity through the bounded admission wait",
            ),
        }
    }

    /// Pushes one request of a finite manifest: refused only for an
    /// already-expired deadline, otherwise blocks until a slot frees —
    /// backpressure, never a shed.
    pub fn push(&self, req: CompileRequest, enqueued: Instant) -> Submitted {
        self.front.push(&self.engine, req, enqueued)
    }

    /// The engine stats snapshot with `stats.queue` read live from this
    /// front: capacity, depth, high-water, in-flight and EWMA service time.
    pub fn stats_json(&self) -> Json {
        self.engine.stats_with_queue(self.front.stats_json())
    }

    /// Graceful shutdown: drains the queue and joins the workers. With
    /// `drain_timeout = None` every accepted request is served. With a
    /// timeout, whatever is still *queued* when it fires is shed as
    /// `overloaded` (in-flight work always finishes).
    pub fn shutdown(self, drain_timeout: Option<Duration>) {
        let Some(timeout) = drain_timeout else {
            return;
        };
        let deadline = Instant::now() + timeout;
        while self.front.backlog() > 0 {
            if Instant::now() >= deadline {
                // Drain horizon reached: everything still queued is shed
                // with a structured response; nothing is dropped silently.
                for job in self.front.queue.drain_matching(|_| true) {
                    let _ = job
                        .tx
                        .send(shutdown_shed(&self.engine, job.req.id, job.enqueued));
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ShardedEngine {
    /// Closes the queue and joins the workers once they have drained it
    /// (the end of [`ShardedEngine::shutdown`]), so worker threads never
    /// outlive the front.
    fn drop(&mut self) {
        self.front.close(&self.engine);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) \
                      { float sum = 0.0f; for (int i = 0; i < w; i = i + 1) \
                      { sum += a[idx][i] * b[i]; } c[idx] = sum; }";

    fn request(id: &str) -> CompileRequest {
        let mut req = CompileRequest::inline(id, MV);
        req.bindings = vec![("n".into(), 64), ("w".into(), 64)];
        req
    }

    fn sharded(shards: usize, capacity: usize) -> ShardedEngine {
        let engine = Arc::new(
            Engine::new(ServiceConfig {
                jobs: 2,
                queue_capacity: capacity,
                ..ServiceConfig::default()
            })
            .expect("engine"),
        );
        ShardedEngine::start(
            engine,
            ShardConfig {
                shards,
                workers_per_shard: 1,
                admission_watermark: 1.0,
                admission_wait_ms: 5,
            },
        )
    }

    #[test]
    fn every_submitted_request_gets_its_response() {
        let server = sharded(2, 8);
        // `shards` multiplies the one queue's capacity.
        let queue = server.stats_json();
        let capacity = ["stats", "queue", "capacity"]
            .iter()
            .try_fold(&queue, |doc, key| doc.get(key))
            .and_then(Json::as_f64);
        assert_eq!(capacity, Some(16.0), "{}", queue.compact());
        let mut pending = Vec::new();
        for i in 0..12 {
            match server.submit(request(&format!("r{i}")), Instant::now()) {
                Submitted::Queued(rx) => pending.push((format!("r{i}"), rx)),
                Submitted::Rejected(resp) => {
                    panic!("unexpected rejection: {:?}", resp.error)
                }
            }
        }
        for (id, rx) in pending {
            let resp = rx.recv().expect("worker responded");
            assert_eq!(resp.id, id);
            assert!(resp.ok(), "{:?}", resp.error);
        }
        server.shutdown(None);
    }

    #[test]
    fn zero_deadline_is_refused_at_admission() {
        let server = sharded(1, 4);
        let mut req = request("expired");
        req.deadline_ms = Some(0);
        match server.submit(req, Instant::now()) {
            Submitted::Rejected(resp) => {
                assert_eq!(
                    resp.error.as_ref().map(|e| e.class),
                    Some(ErrorClass::Deadline)
                );
            }
            Submitted::Queued(_) => panic!("expired request was admitted"),
        }
        server.shutdown(None);
    }

    #[test]
    fn saturation_sheds_with_a_retry_hint_instead_of_blocking() {
        // One shard, one worker, a sub-1.0 watermark, and a deep backlog
        // of *distinct* kernels: once the queue fills past the watermark,
        // further submits must come back `overloaded` immediately.
        let engine = Arc::new(
            Engine::new(ServiceConfig {
                jobs: 2,
                queue_capacity: 2,
                ..ServiceConfig::default()
            })
            .expect("engine"),
        );
        let server = ShardedEngine::start(
            engine,
            ShardConfig {
                shards: 1,
                workers_per_shard: 1,
                admission_watermark: 0.5,
                admission_wait_ms: 5,
            },
        );
        let mut pending = Vec::new();
        let mut sheds = 0;
        let started = Instant::now();
        for i in 0..24 {
            let mut req = request(&format!("s{i}"));
            // Distinct bindings defeat the cache so the worker stays busy.
            req.bindings = vec![("n".into(), 32 + i), ("w".into(), 32)];
            match server.submit(req, Instant::now()) {
                Submitted::Queued(rx) => pending.push(rx),
                Submitted::Rejected(resp) => {
                    assert_eq!(resp.exit_code(), 75);
                    assert!(resp.retry_after_ms().is_some_and(|ms| ms >= 1));
                    sheds += 1;
                }
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "admission stalled"
        );
        assert!(sheds > 0, "24 submits into a 2-deep queue never shed");
        for rx in pending {
            assert!(rx.recv().is_ok());
        }
        server.shutdown(None);
    }

    #[test]
    fn watermark_one_waits_for_a_slot_instead_of_shedding_at_capacity() {
        // With the default watermark of 1.0 a full queue is not an
        // instant shed: admission sweeps expired work and then waits the
        // bounded interval, so a worker that drains within the wait
        // admits every request of a burst much deeper than the queue.
        let engine = Arc::new(
            Engine::new(ServiceConfig {
                jobs: 2,
                queue_capacity: 2,
                ..ServiceConfig::default()
            })
            .expect("engine"),
        );
        let server = ShardedEngine::start(
            engine,
            ShardConfig {
                shards: 1,
                workers_per_shard: 1,
                admission_watermark: 1.0,
                admission_wait_ms: 10_000,
            },
        );
        let mut pending = Vec::new();
        for i in 0..12 {
            let mut req = request(&format!("w{i}"));
            req.bindings = vec![("n".into(), 16 + i), ("w".into(), 16)];
            match server.submit(req, Instant::now()) {
                Submitted::Queued(rx) => pending.push(rx),
                Submitted::Rejected(resp) => {
                    panic!("shed despite the bounded wait: {:?}", resp.error)
                }
            }
        }
        for rx in pending {
            assert!(rx.recv().expect("answered").ok());
        }
        server.shutdown(None);
    }

    #[test]
    fn drain_timeout_sheds_queued_work_as_overloaded() {
        let server = sharded(1, 16);
        let mut pending = Vec::new();
        for i in 0..10 {
            let mut req = request(&format!("d{i}"));
            req.bindings = vec![("n".into(), 128 + i), ("w".into(), 64)];
            match server.submit(req, Instant::now()) {
                Submitted::Queued(rx) => pending.push(rx),
                Submitted::Rejected(resp) => panic!("rejected: {:?}", resp.error),
            }
        }
        server.shutdown(Some(Duration::from_millis(1)));
        let mut outcomes = Vec::new();
        for rx in pending {
            let resp = rx.recv().expect("every job answered even under shed");
            outcomes.push(resp.ok() || resp.exit_code() == 75);
        }
        assert!(outcomes.iter().all(|&ok| ok));
    }
}
