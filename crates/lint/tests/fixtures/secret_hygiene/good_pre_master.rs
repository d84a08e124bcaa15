fn key_exchange(secret: &SecretKey, peer: &PublicKey) -> Result<Vec<u8>, Error> {
    let (public, pre_master) = match kex {
        Kex::Ecdhe => (peer.0, PreMasterSecret::from_ecdhe(secret.diffie_hellman(peer)?)),
    };
    check(&public)?;
    Ok(master_secret(pre_master.as_bytes()))
}

fn wiped_by_hand(shared: [u8; 32]) -> Vec<u8> {
    let mut pre_master = shared.to_vec();
    let master = master_secret(&pre_master);
    ct::zeroize(&mut pre_master);
    master
}

fn public_rebind(pre_master_len: usize) -> usize {
    let n = pre_master_len;
    n
}
