//! The checkpoint pass against its oracle: a copy of the body
//! `Engine::sync_durable` had before it became one pass in step with the
//! checkpoint rows, which looked each job's category up by name and each
//! checkpoint pair up by partition (its byte arithmetic now integer, as
//! the engine's is). Two identically driven engines, buses
//! and stores, one synced each way, hold the same bytes after every step:
//! every checkpoint row, every tail, each category's total and last append
//! time, and every column's `scribe_synced`.

use super::*;
use proptest::prelude::*;

/// Jobs are `JobId(0..JOBS)`.
const JOBS: usize = 5;
const NAMES: [&str; JOBS] = ["c0", "c1", "c2", "c3", "c4"];

fn name_of(job: JobId) -> &'static str {
    NAMES[job.raw() as usize]
}

/// The per-partition body as it was: a row search per job, and per
/// partition a name search for the category and a search for its pair.
fn sync_by_name(
    engine: &mut Engine,
    now: SimTime,
    scribe: &mut Scribe,
    checkpoints: &mut CheckpointStore,
) {
    let JobTable {
        ids,
        runtimes,
        cols,
    } = &mut engine.jobs;
    for (&job, rt) in ids.iter().zip(runtimes.iter_mut()) {
        let epoch_clean = rt.last_durable_epoch == rt.durable_epoch;
        let name = name_of(job);
        match scribe.stats(name) {
            Ok(stats) => {
                if epoch_clean && rt.last_category_appended == Some(stats.total_appended) {
                    continue;
                }
                let mut offsets = checkpoints.job_mut(job);
                for (i, p) in cols.get_mut(rt.cols).iter_mut().enumerate() {
                    let partition = PartitionId(i as u64);
                    let bytes = p.appended - p.scribe_synced;
                    if bytes > 0 {
                        let _ = scribe.append_bytes(name, partition, bytes, now);
                    }
                    p.scribe_synced = p.appended;
                    let tail = scribe.tail_offset(name, partition).unwrap_or(0);
                    let target = p.consumed.min(tail);
                    if target >= offsets.get(partition) {
                        offsets.commit(partition, target);
                    }
                }
                let stats = scribe.stats(name).expect("the category exists");
                rt.last_category_appended = Some(stats.total_appended);
            }
            Err(_) => {
                if epoch_clean && rt.last_category_appended.is_none() {
                    continue;
                }
                let mut offsets = checkpoints.job_mut(job);
                for (i, p) in cols.get_mut(rt.cols).iter_mut().enumerate() {
                    let partition = PartitionId(i as u64);
                    p.scribe_synced = p.appended;
                    if offsets.get(partition) == 0 {
                        offsets.commit(partition, 0);
                    }
                }
                rt.last_category_appended = None;
            }
        }
        rt.last_durable_epoch = rt.durable_epoch;
    }
}

fn encoded(value: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

/// One side: an engine, its bus and its checkpoints.
#[derive(Default)]
struct Side {
    engine: Engine,
    scribe: Scribe,
    checkpoints: CheckpointStore,
}

impl Side {
    /// The job's columns, its durability epoch bumped as a tick's would be.
    fn cols(&mut self, job: JobId) -> &mut [PartitionCol] {
        let rt = self.engine.jobs.get_mut(job).expect("registered");
        rt.durable_epoch += 1;
        let span = rt.cols;
        self.engine.jobs.cols.get_mut(span)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Jobs of one to five partitions, whose categories are missing, have
    /// fewer partitions than the job, as many, or more. Steps: arrivals
    /// and consumption, a
    /// torn-tail salvage that leaves a checkpoint above the tail, a stray
    /// pair for a partition the job does not have, another writer's
    /// append, a late-created category, and syncs — the first one over
    /// empty rows, and repeated ones over clean jobs.
    #[test]
    fn one_pass_matches_the_per_partition_body(
        shape in prop::collection::vec((1u32..6, 0u32..4), 5..6),
        steps in prop::collection::vec((0u8..10, 0u64..5, 0u64..6, 0u64..5_000), 0..60),
    ) {
        let (mut pass, mut oracle) = (Side::default(), Side::default());
        for (j, &(partitions, kind)) in shape.iter().enumerate() {
            for side in [&mut pass, &mut oracle] {
                side.engine.add_job(
                    JobId(j as u64),
                    TrafficModel::flat(1.0e6),
                    1.0e6,
                    256.0,
                    partitions,
                    false,
                    0.0,
                );
                // Missing, fewer partitions, as many, more.
                let count = [0, partitions.saturating_sub(1), partitions, partitions + 2][kind as usize];
                if count > 0 {
                    let id = side.scribe.create_category(NAMES[j], count).expect("fresh name");
                    side.engine.bind_category(JobId(j as u64), id);
                }
            }
        }
        let mut now = SimTime::ZERO;
        for (kind, job, raw, amount) in steps {
            now += Duration::from_secs(10);
            let job = JobId(job);
            let partitions = shape[job.raw() as usize].0 as u64;
            let name = name_of(job);
            for side in [&mut pass, &mut oracle] {
                match kind {
                    0..=2 => {
                        let col = &mut side.cols(job)[(raw % partitions) as usize];
                        col.appended += amount * 37 / 100;
                        col.consumed = col.appended.min(col.consumed + amount * 29 / 100);
                    }
                    3 => {
                        let p = PartitionId(raw);
                        if let Ok(tail) = side.scribe.tail_offset(name, p) {
                            side.scribe
                                .salvage_tail(name, p, tail.saturating_sub(amount))
                                .expect("existing partition");
                        }
                    }
                    4 => {
                        let p = PartitionId(partitions + raw);
                        let offset = side.checkpoints.get(job, p).max(amount);
                        side.checkpoints.commit(job, p, offset);
                    }
                    5 => {
                        let _ = side.scribe.append_bytes(name, PartitionId(raw), amount, now);
                    }
                    6 if !side.scribe.has_category(name) => {
                        let id = side.scribe.create_category(name, raw as u32 + 1).expect("fresh name");
                        side.engine.bind_category(job, id);
                    }
                    _ => {}
                }
            }
            if kind >= 7 {
                pass.engine.sync_durable(now, &mut pass.scribe, &mut pass.checkpoints);
                sync_by_name(&mut oracle.engine, now, &mut oracle.scribe, &mut oracle.checkpoints);
            }
            prop_assert!(encoded(&pass.checkpoints) == encoded(&oracle.checkpoints), "rows");
            prop_assert!(encoded(&pass.scribe) == encoded(&oracle.scribe), "tails and totals");
            prop_assert!(encoded(&pass.engine) == encoded(&oracle.engine), "columns");
        }
    }
}
