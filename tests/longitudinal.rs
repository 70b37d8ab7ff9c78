//! Longitudinal (multi-day) behaviour: the paper observes three months
//! of traffic; we check the day-over-day structure our generator adds —
//! notably that European second homes wake up on weekends — is visible
//! to the *monitor*, end to end.

use satwatch::analytics::engine::customer_days_frame;
use satwatch::analytics::FlowFrame;
use satwatch::scenario::{run, Dataset, ScenarioConfig};
use satwatch::traffic::Country;

/// Per-day traffic volume of `country`'s customers, bytes: the
/// day-granularity companion of the hourly Fig 4, from the frame's
/// `day` and `country` columns.
fn daily_volume(ds: &Dataset, country: Country) -> Vec<u64> {
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let mut by_day = vec![0; ds.enrichment.days as usize];
    for i in 0..fr.len() {
        if fr.country_at(i) == Some(country) {
            if let Some(v) = by_day.get_mut(fr.day[i] as usize) {
                *v += fr.flow_bytes(i);
            }
        }
    }
    by_day
}

#[test]
fn weekend_bump_visible_in_european_volumes() {
    // 7 simulated days: Mon..Sun with day 5/6 the weekend.
    let ds = run(ScenarioConfig::tiny().with_customers(110).with_days(7).with_seed(404));
    let spain = daily_volume(&ds, Country::Spain);
    assert_eq!(spain.len(), 7);
    let weekday_mean = (spain[1] + spain[2] + spain[3]) as f64 / 3.0;
    let weekend_mean = (spain[5] + spain[6]) as f64 / 2.0;
    assert!(
        weekend_mean > weekday_mean * 0.9,
        "weekend {weekend_mean:.0} should not collapse vs weekday {weekday_mean:.0}"
    );

    // The crisper signal: second-home *flow counts* jump on weekends.
    let days = customer_days_frame(&FlowFrame::from_records(&ds.flows, &ds.enrichment), 1);
    let mut weekday_flows = 0u64;
    let mut weekend_flows = 0u64;
    for ((client, day), cd) in &days {
        if ds.enrichment.country(*client) != Some(Country::Spain) {
            continue;
        }
        match day % 7 {
            1..=3 => weekday_flows += cd.flows,
            5 | 6 => weekend_flows += cd.flows,
            _ => {}
        }
    }
    let weekday_rate = weekday_flows as f64 / 3.0;
    let weekend_rate = weekend_flows as f64 / 2.0;
    assert!(weekend_rate > 1.10 * weekday_rate, "ES flows/day: weekend {weekend_rate:.0} vs weekday {weekday_rate:.0}");
}

#[test]
fn african_days_are_uniform() {
    // No second-home effect in Congo: weekday ≈ weekend.
    let ds = run(ScenarioConfig::tiny().with_customers(110).with_days(7).with_seed(404));
    let congo = daily_volume(&ds, Country::Congo);
    let weekday_mean = (congo[1] + congo[2] + congo[3]) as f64 / 3.0;
    let weekend_mean = (congo[5] + congo[6]) as f64 / 2.0;
    let ratio = weekend_mean / weekday_mean.max(1.0);
    assert!((0.4..2.5).contains(&ratio), "Congo weekend/weekday ratio {ratio:.2}");
}
