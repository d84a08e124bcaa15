fn key_exchange(kex: KexSecret, peer: &PublicKey) -> Result<Vec<u8>, Error> {
    // Secret types on the right-hand side do not make the buffer one.
    let pre_master: Vec<u8> = match kex {
        KexSecret::Ecdhe(secret) => secret.diffie_hellman(peer)?.to_vec(),
    };
    let (public, premaster_bytes) = (peer.0, SecretKey::generate().diffie_hellman(peer)?);
    check(&public)?;
    Ok(master_secret(&pre_master, &premaster_bytes))
}
