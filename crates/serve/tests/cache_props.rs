//! Cache-soundness properties for the serving layer.
//!
//! The caching contract has three parts: (1) a cache hit must be
//! **byte-identical** to the cold compute it replaced; (2) the lookup key
//! covers everything a body depends on — canonical scenario, algorithm,
//! the `audit` flag, the text stage's warnings and any overrides — so two
//! requests share a key only when their cold computes agree byte for byte,
//! while text that differs only in comments, blank lines or key order
//! still shares one; (3) keys are content-addressed, so two requests that
//! differ in any `--set` override can never alias to one cached response,
//! no matter what their digests do.

use cool_serve::api::{self, Algorithm, ScheduleItem};
use cool_serve::cache::{CacheKey, LruCache};
use proptest::prelude::*;

/// A request whose parameters arrive entirely through `--set` overrides,
/// mirroring `{"scenario": "...", "set": {...}}` bodies.
fn item_with(sensors: usize, targets: usize, seed: u64, algorithm: Algorithm) -> ScheduleItem {
    ScheduleItem {
        scenario_text: "region = 150\nradius = 60\n".to_string(),
        overrides: vec![
            ("sensors".to_string(), sensors.to_string()),
            ("targets".to_string(), targets.to_string()),
            ("seed".to_string(), seed.to_string()),
        ],
        algorithm,
        audit: false,
    }
}

/// How one request variant spells the same scenario: a set of the
/// spelling flags below.
#[derive(Clone, Copy, Debug)]
struct Variant(u8);

impl Variant {
    /// `"audit": true`.
    const AUDIT: u8 = 1;
    /// A leading `targets` line the real one overrides (`COOL-W002`).
    const DUPLICATE: u8 = 2;
    /// Comments, blank lines, padding and reversed key order.
    const DECORATED: u8 = 4;
    /// `sensors` and `seed` arrive through `set` instead of the text.
    const VIA_SET: u8 = 8;

    fn all() -> impl Iterator<Item = Variant> {
        (0..16).map(Variant)
    }

    fn has(self, flag: u8) -> bool {
        self.0 & flag != 0
    }

    /// The variant with its decoration dropped.
    fn undecorated(self) -> u8 {
        self.0 & !Variant::DECORATED
    }
}

/// A request's cold result: the body, or the error status and body.
type Cold = Result<String, (u16, String)>;

/// One scenario (`sensors`, `targets`, `radius`, `seed` over a 150-unit
/// region) spelled as `variant` says.
fn variant_item(
    sensors: usize,
    targets: usize,
    radius: u32,
    seed: u64,
    v: Variant,
) -> ScheduleItem {
    let mut lines = vec![
        format!("sensors = {sensors}"),
        format!("targets = {targets}"),
        "region = 150".to_string(),
        format!("radius = {radius}"),
        format!("seed = {seed}"),
    ];
    let mut overrides = Vec::new();
    if v.has(Variant::VIA_SET) {
        lines.retain(|l| !l.starts_with("sensors") && !l.starts_with("seed"));
        overrides.push(("sensors".to_string(), sensors.to_string()));
        overrides.push(("seed".to_string(), seed.to_string()));
    }
    if v.has(Variant::DECORATED) {
        // Reversed, padded, commented, each line followed by a blank one.
        lines.reverse();
        lines = lines
            .into_iter()
            .map(|l| format!("  {l}   # tuned\n"))
            .collect();
        lines.insert(0, "# a decorated copy\n".to_string());
    }
    let mut text = String::new();
    if v.has(Variant::DUPLICATE) {
        // Always line 1, so the warning text (which names it) does not
        // depend on the decoration below.
        text.push_str("targets = 9\n");
    }
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    ScheduleItem {
        scenario_text: text,
        overrides,
        algorithm: Algorithm::Greedy,
        audit: v.has(Variant::AUDIT),
    }
}

/// A request's cold compute: the whole pre-flight, then the solve — what
/// the server answers on an empty cache (rejections included).
fn cold(item: &ScheduleItem) -> Cold {
    api::resolve_and_lint(item)
        .and_then(|(scenario, warnings)| {
            api::compute_response(&scenario, &item.algorithm, &warnings)
        })
        .map_err(|e| (e.status, e.body()))
}

/// The lookup key the server computes from the text stage alone.
fn lookup_key(item: &ScheduleItem) -> Option<CacheKey> {
    api::resolve(item).ok().map(|resolved| resolved.key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lookup key covers the whole response: any two variants that
    /// share a key have byte-identical cold computes, and decoration alone
    /// (comments, blank lines, padding, key order) never changes the key.
    #[test]
    fn shared_lookup_keys_imply_identical_cold_computes(
        sensors in 4usize..14,
        targets in 1usize..4,
        radius in prop::sample::select(vec![60u32, 400]),
        seed in 0u64..1_000_000,
    ) {
        let variants: Vec<(Variant, Option<CacheKey>, Cold)> =
            Variant::all()
                .map(|v| {
                    let item = variant_item(sensors, targets, radius, seed, v);
                    (v, lookup_key(&item), cold(&item))
                })
                .collect();
        for (i, (va, ka, ca)) in variants.iter().enumerate() {
            for (vb, kb, cb) in &variants[i + 1..] {
                if ka.is_some() && ka == kb {
                    prop_assert_eq!(ca, cb, "{:?} and {:?} share a key", va, vb);
                }
                if va.undecorated() == vb.undecorated() {
                    prop_assert!(ka.is_some(), "{:?} was rejected by the text stage", va);
                    prop_assert_eq!(ka, kb, "{:?} and {:?} differ only in decoration", va, vb);
                }
            }
        }
    }

    /// Serving from cache returns exactly the bytes a cold compute would
    /// have produced, for every algorithm and any override values.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_computes(
        sensors in 2usize..16,
        targets in 1usize..4,
        seed in any::<u64>(),
        algo in prop::sample::select(vec![0usize, 1, 2]),
    ) {
        let algorithm = match algo {
            0 => Algorithm::Greedy,
            1 => Algorithm::LpRounding { trials: 3 },
            _ => Algorithm::Horizon,
        };
        let item = item_with(sensors, targets, seed, algorithm);
        let (scenario, warnings) = api::resolve_and_lint(&item).unwrap();
        let cold = api::compute_response(&scenario, &item.algorithm, &warnings).unwrap();
        let again = api::compute_response(&scenario, &item.algorithm, &warnings).unwrap();
        prop_assert_eq!(&cold, &again, "cold computes must be deterministic");

        let mut cache = LruCache::new(4);
        cache.insert(api::cache_key(&scenario, &item.algorithm), cold.clone());
        let hit = cache
            .get(&api::cache_key(&scenario, &item.algorithm))
            .expect("key round-trips");
        prop_assert_eq!(hit, cold);
    }

    /// Content-addressed keying: requests with equal overrides share a key,
    /// requests differing in any override never do — and a cache holding
    /// both answers each with its own body.
    #[test]
    fn distinct_set_overrides_never_alias(
        a_sensors in 1usize..40,
        b_sensors in 1usize..40,
        a_seed in 0u64..1000,
        b_seed in 0u64..1000,
    ) {
        let a = item_with(a_sensors, 2, a_seed, Algorithm::Greedy);
        let b = item_with(b_sensors, 2, b_seed, Algorithm::Greedy);
        let (sa, _) = api::resolve_and_lint(&a).unwrap();
        let (sb, _) = api::resolve_and_lint(&b).unwrap();
        let ka = api::cache_key(&sa, &a.algorithm);
        let kb = api::cache_key(&sb, &b.algorithm);
        if (a_sensors, a_seed) == (b_sensors, b_seed) {
            prop_assert_eq!(&ka, &kb);
        } else {
            prop_assert_ne!(&ka, &kb);
            let mut cache = LruCache::new(8);
            cache.insert(ka.clone(), "body-a");
            cache.insert(kb.clone(), "body-b");
            prop_assert_eq!(cache.get(&ka), Some("body-a"));
            prop_assert_eq!(cache.get(&kb), Some("body-b"));
        }
    }

    /// A capacity-1 cache always holds exactly the most recent insert.
    #[test]
    fn capacity_one_holds_only_the_latest_insert(
        keys in proptest::collection::vec(0u8..8, 1..20),
    ) {
        let mut cache = LruCache::new(1);
        for &k in &keys {
            cache.insert(k, u16::from(k) * 3);
        }
        prop_assert_eq!(cache.len(), 1);
        let last = *keys.last().unwrap();
        prop_assert_eq!(cache.get(&last), Some(u16::from(last) * 3));
        for k in 0u8..8 {
            if k != last {
                prop_assert_eq!(cache.get(&k), None);
            }
        }
    }
}
