package cluster

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"
)

// TestMemConnOrderAcrossLargeWrites: writes of several inboxes each, from
// both ends at once, arrive whole and in order through small reads.
func TestMemConnOrderAcrossLargeWrites(t *testing.T) {
	a, b := memConnPair()
	defer a.Close()
	defer b.Close()
	r := rand.New(rand.NewSource(1))
	msgs := make([][]byte, 4)
	for i := range msgs {
		msgs[i] = make([]byte, memInbox*(i+1)+i*777)
		r.Read(msgs[i])
	}
	want := bytes.Join(msgs, nil)
	pump := func(w net.Conn) chan error {
		done := make(chan error, 1)
		go func() {
			for _, m := range msgs {
				if n, err := w.Write(m); err != nil || n != len(m) {
					done <- errors.Join(err, io.ErrShortWrite)
					return
				}
			}
			done <- nil
		}()
		return done
	}
	drain := func(rd net.Conn) []byte {
		got := make([]byte, 0, len(want))
		buf := make([]byte, 4093)
		for len(got) < len(want) {
			n, err := rd.Read(buf)
			if err != nil {
				t.Fatalf("read after %d bytes: %v", len(got), err)
			}
			got = append(got, buf[:n]...)
		}
		return got
	}
	toB, toA := pump(a), pump(b)
	if got := drain(b); !bytes.Equal(got, want) {
		t.Fatal("a→b: the bytes read differ from the bytes written")
	}
	if got := drain(a); !bytes.Equal(got, want) {
		t.Fatal("b→a: the bytes read differ from the bytes written")
	}
	for _, done := range []chan error{toB, toA} {
		if err := <-done; err != nil {
			t.Fatalf("write: %v", err)
		}
	}
}

// waiting runs op on its own goroutine and returns its error channel once
// op has had time to block.
func waiting(t *testing.T, op func() error) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		t.Fatalf("returned before it had to wait: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func within(t *testing.T, done chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still waiting after %v", d)
		return nil
	}
}

// TestMemConnCloseWakesWaiters: the peer's close ends a waiting read with
// io.EOF once the bytes written before it are read, and a waiting write
// with io.ErrClosedPipe; a read or write on a closed end fails with
// io.ErrClosedPipe.
func TestMemConnCloseWakesWaiters(t *testing.T) {
	t.Run("reader", func(t *testing.T) {
		a, b := memConnPair()
		done := waiting(t, func() error {
			buf := make([]byte, 8)
			n, err := a.Read(buf)
			if err != nil || string(buf[:n]) != "last" {
				return errors.Join(errors.New("the bytes before the close were lost"), err)
			}
			_, err = a.Read(buf)
			return err
		})
		b.Write([]byte("last"))
		b.Close()
		if err := within(t, done, time.Second); err != io.EOF {
			t.Fatalf("waiting read after the peer's close: %v, want io.EOF", err)
		}
		a.Close()
		if _, err := a.Read(make([]byte, 1)); err != io.ErrClosedPipe {
			t.Fatalf("read on a closed end: %v, want io.ErrClosedPipe", err)
		}
	})
	t.Run("writer", func(t *testing.T) {
		a, b := memConnPair()
		done := waiting(t, func() error {
			_, err := a.Write(make([]byte, 2*memInbox))
			return err
		})
		b.Close()
		if err := within(t, done, time.Second); err != io.ErrClosedPipe {
			t.Fatalf("waiting write after the peer's close: %v, want io.ErrClosedPipe", err)
		}
		if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
			t.Fatalf("write on a closed end: %v, want io.ErrClosedPipe", err)
		}
	})
	t.Run("own reader", func(t *testing.T) {
		a, b := memConnPair()
		defer b.Close()
		done := waiting(t, func() error {
			_, err := a.Read(make([]byte, 1))
			return err
		})
		a.Close()
		if err := within(t, done, time.Second); err != io.ErrClosedPipe {
			t.Fatalf("waiting read after its own end closed: %v, want io.ErrClosedPipe", err)
		}
	})
}

// TestMemConnDeadlines: a read deadline fires with os.ErrDeadlineExceeded,
// one moved while a read waits takes effect either way, and a write
// deadline ends a write that waits for room.
func TestMemConnDeadlines(t *testing.T) {
	read := func(c net.Conn) func() error {
		return func() error {
			_, err := c.Read(make([]byte, 1))
			return err
		}
	}
	t.Run("fires", func(t *testing.T) {
		a, b := memConnPair()
		defer a.Close()
		defer b.Close()
		a.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		err := within(t, waiting(t, read(a)), time.Second)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past its deadline: %v, want os.ErrDeadlineExceeded", err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("%v is not a net.Error timeout", err)
		}
		// The deadline holds for the next read too, until it is moved.
		if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read after the deadline: %v", err)
		}
		a.SetReadDeadline(time.Time{})
		b.Write([]byte("x"))
		if _, err := a.Read(make([]byte, 1)); err != nil {
			t.Fatalf("read with the deadline cleared: %v", err)
		}
	})
	t.Run("shortened", func(t *testing.T) {
		a, b := memConnPair()
		defer a.Close()
		defer b.Close()
		a.SetReadDeadline(time.Now().Add(time.Hour))
		done := waiting(t, read(a))
		a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if err := within(t, done, time.Second); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read after its deadline was shortened: %v", err)
		}
	})
	t.Run("extended", func(t *testing.T) {
		a, b := memConnPair()
		defer a.Close()
		defer b.Close()
		a.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		done := waiting(t, read(a))
		a.SetReadDeadline(time.Now().Add(time.Hour))
		select {
		case err := <-done:
			t.Fatalf("read returned %v although its deadline was extended", err)
		case <-time.After(400 * time.Millisecond):
		}
		b.Write([]byte("x"))
		if err := within(t, done, time.Second); err != nil {
			t.Fatalf("read after the deadline was extended: %v", err)
		}
	})
	t.Run("write", func(t *testing.T) {
		a, b := memConnPair()
		defer a.Close()
		defer b.Close()
		a.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		var n int
		done := waiting(t, func() (err error) {
			n, err = a.Write(make([]byte, memInbox+1))
			return err
		})
		if err := within(t, done, time.Second); !errors.Is(err, os.ErrDeadlineExceeded) || n != memInbox {
			t.Fatalf("write past its deadline: %d bytes, %v; want %d, os.ErrDeadlineExceeded", n, err, memInbox)
		}
	})
}
