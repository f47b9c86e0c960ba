package sql

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"crdbserverless/internal/txn"
)

// Session is one client connection's SQL state: settings, prepared
// statements, and the open explicit transaction, if any. Sessions serialize
// for dynamic session migration (§4.2.4): when idle, the proxy captures the
// session (settings + prepared statements + a revival token) and restores it
// on another SQL node without client re-authentication.
type Session struct {
	exec *Executor

	mu struct {
		sync.Mutex
		user     string
		settings map[string]string
		prepared map[string]string // name -> statement text
		txn      *txn.Txn
		queries  int64
	}
}

// NewSession returns a session for the given user.
func NewSession(exec *Executor, user string) *Session {
	s := &Session{exec: exec}
	s.mu.user = user
	s.mu.settings = make(map[string]string)
	s.mu.prepared = make(map[string]string)
	return s
}

// User returns the authenticated user.
func (s *Session) User() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.user
}

// QueryCount returns the number of statements executed.
func (s *Session) QueryCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.queries
}

// InTxn reports whether an explicit transaction is open — a session with an
// open transaction is not idle and cannot migrate.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.txn != nil
}

// Execute runs one statement, honoring the session's transaction state. The
// text is parsed once per executor: a text seen before reuses its parse.
func (s *Session) Execute(ctx context.Context, sqlText string, args ...Datum) (*Result, error) {
	p, err := s.exec.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mu.queries++
	s.mu.Unlock()
	switch st := p.stmt.(type) {
	case *BeginTxn:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.mu.txn != nil {
			return nil, errors.New("sql: transaction already open")
		}
		s.mu.txn = s.exec.coord.Begin()
		return &Result{}, nil
	case *CommitTxn:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.txn = nil
		s.mu.Unlock()
		if t == nil {
			return nil, errors.New("sql: no transaction open")
		}
		if err := t.Commit(ctx); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *RollbackTxn:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.txn = nil
		s.mu.Unlock()
		if t == nil {
			return nil, errors.New("sql: no transaction open")
		}
		if err := t.Abort(ctx); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *SetVar:
		v, err := evalExpr(&evalEnv{args: args}, st.Value)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.mu.settings[st.Name] = v.String()
		s.mu.Unlock()
		return &Result{}, nil
	default:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.Unlock()
		res, err := s.exec.ExecuteStmt(ctx, p, args, t)
		if err != nil && t != nil {
			// A failed statement poisons the explicit transaction.
			//lint:allow faulterr the statement error is what the client sees; a failed abort only leaves intents for the next reader to resolve
			_ = t.Abort(ctx)
			s.mu.Lock()
			s.mu.txn = nil
			s.mu.Unlock()
		}
		return res, err
	}
}

// Prepare registers a named prepared statement. The name maps to the text,
// which is what migrates; the executor keeps the parse.
func (s *Session) Prepare(name, sqlText string) error {
	if _, err := s.exec.Prepare(sqlText); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.prepared[name] = sqlText
	return nil
}

// ExecutePrepared runs a previously prepared statement with arguments.
func (s *Session) ExecutePrepared(ctx context.Context, name string, args ...Datum) (*Result, error) {
	s.mu.Lock()
	text, ok := s.mu.prepared[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sql: prepared statement %q not found", name)
	}
	return s.Execute(ctx, text, args...)
}

// Setting returns a session setting value.
func (s *Session) Setting(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.mu.settings[name]
	return v, ok
}

// SerializedSession is the migratable snapshot of a session: client settings,
// prepared statements, and a revival token that lets the proxy resume the
// session on a new SQL node without client re-authentication (§4.2.4).
type SerializedSession struct {
	User         string
	Settings     map[string]string
	Prepared     map[string]string
	RevivalToken string
}

// ErrSessionBusy is returned when serializing a session with an open
// transaction: migration only happens while the session is idle.
var ErrSessionBusy = errors.New("sql: session has an open transaction; not idle")

// Serialize captures the session for migration. secret is the cluster's
// shared revival-token key.
func (s *Session) Serialize(secret []byte) (*SerializedSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mu.txn != nil {
		return nil, ErrSessionBusy
	}
	out := &SerializedSession{
		User:         s.mu.user,
		Settings:     make(map[string]string, len(s.mu.settings)),
		Prepared:     make(map[string]string, len(s.mu.prepared)),
		RevivalToken: MakeRevivalToken(secret, s.mu.user),
	}
	for k, v := range s.mu.settings {
		out.Settings[k] = v
	}
	for k, v := range s.mu.prepared {
		out.Prepared[k] = v
	}
	return out, nil
}

// RestoreSession validates the revival token and reconstructs the session on
// a new executor (SQL node).
func RestoreSession(exec *Executor, ser *SerializedSession, secret []byte) (*Session, error) {
	if !ValidateRevivalToken(secret, ser.RevivalToken, ser.User) {
		return nil, errors.New("sql: invalid revival token")
	}
	s := NewSession(exec, ser.User)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range ser.Settings {
		s.mu.settings[k] = v
	}
	for k, v := range ser.Prepared {
		s.mu.prepared[k] = v
	}
	return s, nil
}

// Encode serializes the snapshot for transport through the proxy.
func (ss *SerializedSession) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ss); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSerializedSession parses a transported session snapshot.
func DecodeSerializedSession(b []byte) (*SerializedSession, error) {
	var ss SerializedSession
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ss); err != nil {
		return nil, err
	}
	return &ss, nil
}

// MakeRevivalToken derives the internal authentication credential embedded
// in serialized sessions.
func MakeRevivalToken(secret []byte, user string) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("revival:" + user))
	return hex.EncodeToString(mac.Sum(nil))
}

// ValidateRevivalToken checks a revival token in constant time.
func ValidateRevivalToken(secret []byte, token, user string) bool {
	want := MakeRevivalToken(secret, user)
	return hmac.Equal([]byte(want), []byte(token))
}
