//! Table 1 (paper §4): every threat/defense row as an executed
//! attack, asserting mbTLS blocks what the paper claims it blocks —
//! and that the baselines fail where the paper says they fail.

use mbtls_bench::table1::{self, Protocol};

#[test]
fn p1a_wire_eavesdrop_blocked() {
    let r = table1::attack_wire_eavesdrop().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p1a_mip_memory_scan_blocked_with_enclave() {
    let r = table1::attack_mip_memory_scan(true).expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTls);
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p1a_mip_memory_scan_succeeds_without_enclave() {
    // The defense IS the enclave: without it the MIP reads the keys.
    let r = table1::attack_mip_memory_scan(false).expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTlsNoEnclave);
    assert!(!r.blocked, "without an enclave the scan must find keys");
}

#[test]
fn p1b_forward_secrecy_holds() {
    let r = table1::attack_forward_secrecy().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p1c_change_secrecy_blocked_under_mbtls() {
    let r = table1::attack_change_secrecy(false).expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p1c_change_secrecy_fails_under_naive_key_share() {
    let r = table1::attack_change_secrecy(true).expect("attack harness");
    assert!(
        !r.blocked,
        "naive key sharing must leak whether the middlebox modified data"
    );
}

#[test]
fn p2_tamper_inject_replay_blocked() {
    for r in [
        table1::attack_record_tamper().expect("attack harness"),
        table1::attack_record_inject().expect("attack harness"),
        table1::attack_record_replay().expect("attack harness"),
    ] {
        assert!(r.blocked, "{}: {}", r.threat, r.detail);
    }
}

#[test]
fn p2_mip_ram_tamper_detected() {
    let r = table1::attack_mip_ram_tamper().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3a_server_impersonation_blocked() {
    let r = table1::attack_impersonate_server().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3b_wrong_code_blocked() {
    let r = table1::attack_wrong_middlebox_code().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3b_attestation_replay_blocked() {
    let r = table1::attack_attestation_replay().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p4_path_skip_blocked_under_mbtls() {
    let r = table1::attack_path_skip(false).expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p4_path_skip_succeeds_under_naive_key_share() {
    let r = table1::attack_path_skip(true).expect("attack harness");
    assert!(!r.blocked, "naive key sharing has no path integrity");
}

#[test]
fn p4_path_reorder_blocked() {
    let r = table1::attack_path_reorder().expect("attack harness");
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3b_expired_credential_blocked() {
    let r = table1::attack_expired_credential().expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTlsDelegated);
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3b_wrong_key_credential_blocked() {
    let r = table1::attack_wrong_key_credential().expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTlsDelegated);
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3b_credential_replay_blocked() {
    let r = table1::attack_credential_replay().expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTlsDelegated);
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn p3a_middlebox_substitution_blocked() {
    let r = table1::attack_middlebox_substitution().expect("attack harness");
    assert_eq!(r.protocol, Protocol::MbTlsDelegated);
    assert!(r.blocked, "{}: {}", r.threat, r.detail);
}

#[test]
fn full_matrix_shape() {
    let matrix = table1::full_matrix().expect("attack harness");
    assert_eq!(matrix.len(), 20);
    // Every mbTLS row (attested or delegated) is blocked; the three
    // intentional-failure baselines are not.
    for r in &matrix {
        assert_eq!(r.blocked, r.protocol.defends(), "{} against {:?}", r.threat, r.protocol);
    }
    assert_eq!(
        matrix.iter().filter(|r| r.protocol == Protocol::MbTlsDelegated).count(),
        4
    );
}
