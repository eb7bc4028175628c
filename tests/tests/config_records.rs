//! The records declared with `config_record!`: their encoded bytes are
//! pinned, and every record decodes what it encodes.
//!
//! The two digests were computed by the hand-written encoders the macro
//! replaced, so a change to a field list, a key, a default that is written
//! out, or a number's JSON form shows here, not only in the harness diff.

use proptest::prelude::*;
use turbine_config::{
    parse, to_text, ConfigField, JobConfig, MemoryEnforcement, PackageSpec, ResiliencyClass,
};
use turbine_fuzz::generate;
use turbine_types::{Fnv1a, Priority, Resources};

fn fnv(texts: impl IntoIterator<Item = String>) -> u64 {
    let mut digest = Fnv1a::new();
    for text in texts {
        digest.write(text.as_bytes());
    }
    digest.finish()
}

/// A job config in which no field has its `JobConfig::stateless` value.
fn every_field_set() -> JobConfig {
    JobConfig {
        package: PackageSpec {
            name: "golden_tailer".into(),
            version: 42,
        },
        args: vec![
            "--task-index={index}".into(),
            "--label=\"quoted\" \u{e9}".into(),
        ],
        task_count: 7,
        threads_per_task: 3,
        task_resources: Resources::new(2.5, 1536.0, 8192.0, 12.25),
        checkpoint_dir: "/checkpoints/golden".into(),
        input_category: "golden_input".into(),
        input_partitions: 48,
        stateful: true,
        priority: Priority::Privileged,
        slo_lag_secs: 45.5,
        memory_enforcement: MemoryEnforcement::Cgroup,
        max_task_count: 96,
        resiliency: ResiliencyClass::Critical,
    }
}

#[test]
fn fuzz_repro_bytes_are_pinned() {
    let digest = fnv((0..200).map(|seed| generate(seed).to_json()));
    assert_eq!(digest, 0x56e5_5f27_7307_84a9, "{digest:#018x}");
    // Seeds past `i64::MAX` are written as the `i64` with the same bits.
    let digest = fnv([u64::MAX, u64::MAX - 1, 1 << 63].map(|seed| generate(seed).to_json()));
    assert_eq!(digest, 0x9b97_e195_eb8b_91f1, "{digest:#018x}");
}

#[test]
fn job_config_value_bytes_are_pinned() {
    let text = to_text(&every_field_set().to_value());
    let digest = fnv([text.clone()]);
    assert_eq!(digest, 0xea0d_0350_dd4d_d7db, "{digest:#018x}: {text}");
}

/// `decode(encode(x)) == x`, and the text of `x` prints back unchanged.
fn round_trips<T: ConfigField + PartialEq + std::fmt::Debug>(record: &T) -> Result<(), String> {
    let text = to_text(&record.encode());
    let value = parse(&text).map_err(|e| format!("{e}: {text}"))?;
    let back = T::decode(&value).map_err(|e| format!("{e}: {text}"))?;
    if &back != record {
        return Err(format!("{back:?} != {record:?}"));
    }
    if to_text(&back.encode()) != text {
        return Err(format!("text moved: {text}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record type round-trips: the five fuzz records of a
    /// generated scenario (any seed, so `seed` and `traffic_seed` cover
    /// the whole `u64` range), and a job config with arbitrary counts,
    /// resources and words. A `u64` version past `i64::MAX` is not
    /// representable and is refused, as it always was.
    #[test]
    fn every_record_round_trips(
        seed in any::<u64>(),
        counts in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), 0..=i64::MAX as u64),
        shape in (-1.0e9..1.0e9, 0.0..1.0e6, 0.0..1.0e6, 0.0..1.0e4, 0.0..1.0e3),
        words in (0..4usize, 0..3usize, 0..3usize, any::<bool>()),
        name in "[a-z_\"\\\\\u{e9}]{0,10}",
    ) {
        let mut scenario = generate(seed);
        scenario.seed = seed;
        for job in &mut scenario.jobs {
            job.traffic_seed = seed.rotate_left(17);
        }
        prop_assert!(round_trips(&scenario).is_ok(), "{:?}", round_trips(&scenario));
        for job in &scenario.jobs {
            prop_assert!(round_trips(job).is_ok(), "{:?}", round_trips(job));
            for event in &job.events {
                prop_assert!(round_trips(event).is_ok(), "{:?}", round_trips(event));
            }
        }
        for fault in &scenario.faults {
            prop_assert!(round_trips(fault).is_ok(), "{:?}", round_trips(fault));
        }
        for flap in &scenario.flaps {
            prop_assert!(round_trips(flap).is_ok(), "{:?}", round_trips(flap));
        }

        let (task_count, threads, partitions, max_tasks, version) = counts;
        let (cpu, memory, disk, network, lag) = shape;
        let (priority, enforcement, tier, stateful) = words;
        let config = JobConfig {
            package: PackageSpec { name: name.clone(), version },
            args: vec![name.clone(), String::new()],
            task_count,
            threads_per_task: threads,
            task_resources: Resources::new(cpu, memory, disk, network),
            checkpoint_dir: format!("/ckpt/{name}"),
            input_category: name,
            input_partitions: partitions,
            stateful,
            priority: [Priority::Low, Priority::Normal, Priority::High, Priority::Privileged][priority],
            slo_lag_secs: lag,
            memory_enforcement: [
                MemoryEnforcement::Cgroup,
                MemoryEnforcement::Jvm,
                MemoryEnforcement::SoftLimit,
            ][enforcement],
            max_task_count: max_tasks,
            resiliency: ResiliencyClass::ALL[tier],
        };
        prop_assert!(round_trips(&config.package).is_ok(), "{:?}", round_trips(&config.package));
        prop_assert!(round_trips(&config).is_ok(), "{:?}", round_trips(&config));
        prop_assert_eq!(JobConfig::from_value(&config.to_value()), Ok(config));
    }
}
