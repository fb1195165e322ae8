//! [`CircuitPool`]: compiled circuits keyed by model id
//! (model-per-tenant), each hosted at a live [`ModelVersion`].
//! Registering or reloading a model compiles both serving tapes and
//! passes them through the static-verifier admission gate; reloads
//! publish the new tenant atomically, while work already admitted keeps
//! the tenant handle (and tape version) it was admitted under.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use problp_ac::{AcGraph, Semiring};
use problp_bayes::{BatchQuery, EvidenceBatch};
use problp_num::Arith;

use crate::engine::Engine;
use crate::error::{panic_message, EngineError};
use crate::kernels::{KernelKind, KernelSet};
use crate::query::{ConditionalLaneStatus, QueryBatchResult};

use super::admission::{LaneResult, ServeError, ServeRequest, ServeResponse};

/// The live version of a hosted model: `1` at first registration,
/// bumped by every [`CircuitPool::reload`] (and re-register) of the
/// same id. Versions gate cache reuse — an answer cached under one
/// version can never serve a request admitted under another.
pub type ModelVersion = u64;

/// Threads per hosted engine evaluation: one, so the dispatcher shards
/// ([`super::ServeConfig::workers`]) stay the unit of parallelism.
const ENGINE_THREADS: usize = 1;

/// One hosted model: the engines serving its three query kinds, frozen
/// at one tape version. Queued and in-flight work holds an `Arc` to the
/// tenant it was admitted under, so a reload never changes the tape a
/// lane is evaluated on.
pub(crate) struct Tenant<A: Arith> {
    /// `SumProduct` compact tape: marginal and conditional lanes.
    pub(crate) sum: Engine<A>,
    /// `MaxProduct` full-values tape: MPE decoding.
    pub(crate) mpe: Engine<A>,
    /// Variables of the model (admission-time shape check).
    pub(crate) var_count: usize,
    /// The tenant's tape version (see [`ModelVersion`]).
    pub(crate) version: ModelVersion,
}

/// Hosts many compiled circuits keyed by model id (model-per-tenant),
/// all bound to one arithmetic context type.
///
/// Registering a model compiles both tapes it can be served from. The
/// hosted set is fixed at serving time, but a hosted model can be
/// **hot-swapped** in place with [`CircuitPool::reload`]: the new tape
/// pair is compiled, verified and published atomically at the next
/// [`ModelVersion`], cutting new admissions over without draining the
/// work already queued against the previous version.
pub struct CircuitPool<A: Arith> {
    ctx: A,
    tenants: RwLock<HashMap<String, Arc<Tenant<A>>>>,
}

impl<A> CircuitPool<A>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    /// Creates an empty pool evaluating in `ctx`'s number system.
    ///
    /// Every hosted engine runs [`KernelKind::Scalar`], unlike the
    /// [`Engine`] default. Serving groups are small, so the fused kernel
    /// moves no median latency, while its set-up cost would land on
    /// every register and reload: per Alarm tape on a shared 2-vCPU
    /// host, `Tape::fuse` takes about 0.22 ms and `Tape::verify_fused`
    /// about 0.69 ms, against 0.03 ms for `Tape::verify`, and serving
    /// set-up rose from 1.8–2.7 ms to 5.6–6.7 ms with fused engines.
    pub fn new(ctx: A) -> Self {
        CircuitPool {
            ctx,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// The arithmetic context every hosted engine evaluates in — the
    /// hook result renderers (the HTTP gateway) use to project values
    /// into `f64` via [`problp_num::Arith::to_f64`].
    pub fn context(&self) -> &A {
        &self.ctx
    }

    /// Compiles both serving engines for `ac` under the pool's context
    /// on the scalar kernel — the shared build step of [`register`] and
    /// [`reload`].
    ///
    /// [`register`]: CircuitPool::register
    /// [`reload`]: CircuitPool::reload
    fn compile_engines(&self, ac: &AcGraph) -> Result<(Engine<A>, Engine<A>), EngineError> {
        let sum = Engine::from_graph(ac, Semiring::SumProduct, self.ctx.clone())?
            .with_threads(ENGINE_THREADS)
            .with_kernel(KernelKind::Scalar);
        let mpe = Engine::from_graph_full(ac, Semiring::MaxProduct, self.ctx.clone())?
            .with_threads(ENGINE_THREADS)
            .with_kernel(KernelKind::Scalar);
        Ok((sum, mpe))
    }

    /// Compiles `ac` under both serving semirings and hosts it as
    /// `model`. Re-registering an id replaces the previous circuit and
    /// bumps its [`ModelVersion`].
    ///
    /// Admission runs the static tape verifier ([`crate::Tape::verify`],
    /// and [`crate::Tape::verify_fused`] on an engine handed in on the
    /// fused kernel) over both engines in **every** build — release
    /// included, where compilation itself skips the debug-only
    /// auto-check — so a tape that lost its dataflow guarantees
    /// anywhere between compilation and serving never joins the pool.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] if the circuit is invalid, or
    /// [`EngineError::Verify`] if a compiled tape fails verification.
    pub fn register(&mut self, model: &str, ac: &AcGraph) -> Result<(), EngineError> {
        let (sum, mpe) = self.compile_engines(ac)?;
        self.register_engines(model, sum, mpe)
    }

    /// Hosts a pair of pre-built engines as `model` after passing them
    /// through the verification gate; [`CircuitPool::register`] is the
    /// compile-and-admit convenience on top of this. Taking engines
    /// directly is what lets verifier tests (and future tape
    /// deserialization paths) exercise the typed rejection: a tape
    /// corrupted after compilation is refused here with
    /// [`EngineError::Verify`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Verify`] if either engine's tape — or its
    /// fused stream, when one is attached — fails static verification.
    pub fn register_engines(
        &mut self,
        model: &str,
        sum: Engine<A>,
        mpe: Engine<A>,
    ) -> Result<(), EngineError> {
        verify_engines(&sum, &mpe)?;
        let var_count = sum.tape().var_count();
        let mut tenants = self.write_tenants();
        let version = tenants.get(model).map_or(1, |t| t.version + 1);
        tenants.insert(
            model.to_string(),
            Arc::new(Tenant {
                sum,
                mpe,
                var_count,
                version,
            }),
        );
        Ok(())
    }

    /// Hot-swaps a hosted model: recompiles `ac` under both serving
    /// semirings, passes the new tapes through the same verification
    /// gate as [`CircuitPool::register`], and atomically publishes them
    /// at the next [`ModelVersion`]. Returns the new version.
    ///
    /// The cut-over is admission-time only: requests admitted after the
    /// swap are served by the new tapes, while queued and in-flight
    /// work keeps the tenant it was admitted under — nothing drains and
    /// no ticket strands. Compilation and verification happen *outside*
    /// the pool's lock, so serving never stalls behind a reload.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if `model` is not hosted
    /// (reload replaces, it does not introduce), or the underlying
    /// [`EngineError`] (as [`ServeError::Engine`]) if the circuit is
    /// invalid or a recompiled tape fails verification — the previous
    /// version keeps serving in every error case.
    pub fn reload(&self, model: &str, ac: &AcGraph) -> Result<ModelVersion, ServeError> {
        if !self.read_tenants().contains_key(model) {
            return Err(ServeError::UnknownModel {
                model: model.to_string(),
            });
        }
        let (sum, mpe) = self.compile_engines(ac)?;
        verify_engines(&sum, &mpe)?;
        let var_count = sum.tape().var_count();
        let mut tenants = self.write_tenants();
        // Re-read under the write lock: concurrent reloads serialize
        // here and each one publishes a strictly newer version.
        let version = tenants.get(model).map_or(1, |t| t.version + 1);
        tenants.insert(
            model.to_string(),
            Arc::new(Tenant {
                sum,
                mpe,
                var_count,
                version,
            }),
        );
        Ok(version)
    }

    /// The hosted model ids, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_tenants().keys().cloned().collect();
        names.sort();
        names
    }

    /// The hosted models with their live versions, sorted by model id.
    pub fn model_versions(&self) -> Vec<(String, ModelVersion)> {
        let mut versions: Vec<(String, ModelVersion)> = self
            .read_tenants()
            .iter()
            .map(|(name, t)| (name.clone(), t.version))
            .collect();
        versions.sort();
        versions
    }

    /// Number of hosted models.
    pub fn len(&self) -> usize {
        self.read_tenants().len()
    }

    /// `true` when no model is hosted.
    pub fn is_empty(&self) -> bool {
        self.read_tenants().is_empty()
    }

    /// Looks up a tenant's current version, as a [`ServeError`] on
    /// miss. The returned handle pins the tenant's tape version for as
    /// long as the caller holds it — this is what makes reload cut-over
    /// admission-time only.
    pub(crate) fn tenant(&self, model: &str) -> Result<Arc<Tenant<A>>, ServeError> {
        self.read_tenants()
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })
    }

    /// Admission-time request validation: the model must exist, the
    /// evidence must range over its variables, and every observed state
    /// must be one of its variable's states. Returns the tenant the
    /// request was admitted to, so admission and dispatch agree on the
    /// tape version even across a concurrent reload.
    pub(crate) fn admit(&self, req: &ServeRequest) -> Result<Arc<Tenant<A>>, ServeError> {
        let tenant = self.tenant(&req.model)?;
        if req.evidence.len() != tenant.var_count {
            return Err(ServeError::Engine(EngineError::BatchLengthMismatch {
                batch: req.evidence.len(),
                circuit: tenant.var_count,
            }));
        }
        let arities = tenant.sum.tape().var_arities();
        for (var, state) in req.evidence.iter() {
            let arity = arities.get(var.index()).copied().unwrap_or(0);
            if state >= arity {
                return Err(ServeError::Engine(EngineError::StateOutOfRange {
                    var: var.index(),
                    state,
                    arity,
                }));
            }
        }
        Ok(tenant)
    }

    /// Serves one request directly, as a single-lane batch — the
    /// per-request reference path the coalesced answers are pinned
    /// bit-identical to, and the scalar baseline of `serve-sim`. This
    /// path never consults the answer cache: it is the uncached
    /// reference the cache's hits are compared against.
    pub fn serve_one(&self, req: &ServeRequest) -> LaneResult<A::Value> {
        let tenant = self.admit(req)?;
        let mut batch = EvidenceBatch::new(tenant.var_count);
        batch.push(&req.evidence);
        // Panic-proof like the dispatcher path: any panic inside the
        // evaluation (engine fast paths included) becomes a typed
        // WorkerPanic instead of unwinding the caller's thread.
        let mut results = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.evaluate_group(&tenant, req.query, &batch)
        }))
        .map_err(|payload| {
            ServeError::Engine(EngineError::WorkerPanic {
                message: panic_message(payload),
            })
        })?;
        // One lane in must mean one result out; if an engine ever breaks
        // that, surface a typed internal error instead of panicking.
        match (results.len(), results.pop()) {
            (1, Some(result)) => result,
            (got, _) => Err(ServeError::LaneCountMismatch { expected: 1, got }),
        }
    }

    /// Evaluates one coalesced `(model, query)` group and splits the
    /// result back into per-lane answers. A batch-level engine error is
    /// replicated to every lane; conditional lanes with impossible
    /// evidence fail individually.
    pub(crate) fn evaluate_group(
        &self,
        tenant: &Tenant<A>,
        query: BatchQuery,
        batch: &EvidenceBatch,
    ) -> Vec<LaneResult<A::Value>> {
        let engine = match query {
            BatchQuery::Mpe => &tenant.mpe,
            _ => &tenant.sum,
        };
        match engine.evaluate_query(batch, query) {
            Err(e) => vec![Err(ServeError::Engine(e)); batch.lanes()],
            Ok(QueryBatchResult::Marginal(r)) => {
                let flags = r.flags;
                r.values
                    .into_iter()
                    .map(|value| Ok(ServeResponse::Marginal { value, flags }))
                    .collect()
            }
            Ok(QueryBatchResult::Mpe(r)) => {
                let flags = r.flags;
                r.assignments
                    .into_iter()
                    .zip(r.values)
                    .map(|(assignment, value)| {
                        Ok(ServeResponse::Mpe {
                            assignment,
                            value,
                            flags,
                        })
                    })
                    .collect()
            }
            Ok(QueryBatchResult::Conditional(r)) => {
                let flags = r.flags;
                r.posteriors
                    .into_iter()
                    .zip(r.predictions)
                    .zip(r.lane_status)
                    .map(|((posteriors, prediction), status)| match status {
                        ConditionalLaneStatus::Ok => Ok(ServeResponse::Conditional {
                            posteriors,
                            prediction,
                            flags,
                        }),
                        ConditionalLaneStatus::ImpossibleEvidence => {
                            Err(ServeError::ImpossibleEvidence)
                        }
                    })
                    .collect()
            }
        }
    }
}

impl<A: Arith> CircuitPool<A> {
    /// Read-locks the tenant map, recovering from poisoning: the map is
    /// plain data (a publish is one atomic insert), and serving must
    /// outlive a panicked reload.
    fn read_tenants(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<Tenant<A>>>> {
        self.tenants
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write-locks the tenant map (see [`CircuitPool::read_tenants`]).
    fn write_tenants(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Tenant<A>>>> {
        self.tenants
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The verification gate both registration paths share: every tape (and
/// attached fused stream) must pass static verification before the
/// engines join the pool.
fn verify_engines<A>(sum: &Engine<A>, mpe: &Engine<A>) -> Result<(), EngineError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    for engine in [sum, mpe] {
        engine.tape().verify()?;
        if let Some(fused) = engine.fused_tape() {
            engine.tape().verify_fused(fused)?;
        }
    }
    Ok(())
}

/// Shared fixtures of the serve test modules.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::super::admission::{Priority, ServeRequest};
    use super::CircuitPool;
    use problp_ac::compile;
    use problp_bayes::{networks, BatchQuery, Evidence};
    use problp_num::F64Arith;

    /// A pool hosting the sprinkler and asia networks — the standard
    /// two-tenant fixture.
    pub(crate) fn two_model_pool() -> CircuitPool<F64Arith> {
        let mut pool = CircuitPool::new(F64Arith::new());
        pool.register("sprinkler", &compile(&networks::sprinkler()).unwrap())
            .unwrap();
        pool.register("asia", &compile(&networks::asia()).unwrap())
            .unwrap();
        pool
    }

    /// An empty-evidence marginal request against `model`.
    pub(crate) fn marginal(model: &str, vars: usize, priority: Priority) -> ServeRequest {
        ServeRequest {
            model: model.to_string(),
            evidence: Evidence::empty(vars),
            query: BatchQuery::Marginal,
            priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::two_model_pool;
    use super::*;
    use problp_ac::compile;
    use problp_bayes::networks;

    #[test]
    fn pool_hosts_models_by_id() {
        let pool = two_model_pool();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.models(), vec!["asia", "sprinkler"]);
        assert!(!pool.is_empty());
        assert_eq!(
            pool.model_versions(),
            vec![("asia".to_string(), 1), ("sprinkler".to_string(), 1)]
        );
    }

    #[test]
    fn reload_bumps_the_version_and_keeps_admitted_handles() {
        let pool = two_model_pool();
        let before = pool.tenant("sprinkler").unwrap();
        assert_eq!(before.version, 1);
        let ac = compile(&networks::sprinkler()).unwrap();
        assert_eq!(pool.reload("sprinkler", &ac).unwrap(), 2);
        assert_eq!(pool.reload("sprinkler", &ac).unwrap(), 3);
        // The handle taken before the reloads still pins version 1: work
        // admitted against it is never re-routed to a newer tape.
        assert_eq!(before.version, 1);
        let after = pool.tenant("sprinkler").unwrap();
        assert_eq!(after.version, 3);
        assert_eq!(
            pool.model_versions(),
            vec![("asia".to_string(), 1), ("sprinkler".to_string(), 3)]
        );
    }

    #[test]
    fn reload_of_an_unhosted_model_is_rejected() {
        let pool = two_model_pool();
        let ac = compile(&networks::sprinkler()).unwrap();
        assert!(matches!(
            pool.reload("nonesuch", &ac),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    /// The pool pins the scalar kernel: neither registration, reload nor
    /// serving ever pays for a fused stream.
    #[test]
    fn pooled_engines_never_build_a_fused_stream() {
        let pool = two_model_pool();
        let ac = compile(&networks::sprinkler()).unwrap();
        pool.reload("sprinkler", &ac).unwrap();
        let request = super::tests_support::marginal("sprinkler", 4, Default::default());
        pool.serve_one(&request).unwrap();
        for model in pool.models() {
            let tenant = pool.tenant(&model).unwrap();
            for engine in [&tenant.sum, &tenant.mpe] {
                assert_eq!(engine.kernel(), KernelKind::Scalar, "{model}");
                assert!(!engine.has_fused_tape(), "{model} built a fused stream");
            }
        }
    }

    #[test]
    fn reregister_bumps_the_version_too() {
        let mut pool = two_model_pool();
        let ac = compile(&networks::sprinkler()).unwrap();
        pool.register("sprinkler", &ac).unwrap();
        assert_eq!(pool.tenant("sprinkler").unwrap().version, 2);
    }
}
