package crdbserverless_test

import (
	"context"
	"fmt"
	"log"

	"crdbserverless"
)

// Example shows the end-to-end lifecycle: provision a virtual cluster, run
// SQL through the routing proxy, scale to zero, and cold-start back.
func Example() {
	srv, err := crdbserverless.New(crdbserverless.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	if _, err := srv.CreateTenant(ctx, "acme", crdbserverless.TenantOptions{}); err != nil {
		log.Fatal(err)
	}
	conn, err := srv.Connect("acme", "")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := conn.Query("CREATE TABLE greetings (id INT PRIMARY KEY, msg STRING)"); err != nil {
		log.Fatal(err)
	}
	if _, err := conn.Query("INSERT INTO greetings VALUES ($1, $2)",
		crdbserverless.DInt(1), crdbserverless.DString("hello, virtual cluster")); err != nil {
		log.Fatal(err)
	}
	conn.Close()

	// Scale to zero...
	if err := srv.Suspend(ctx, "acme"); err != nil {
		log.Fatal(err)
	}
	// ...and cold-start back with the next connection.
	conn2, err := srv.Connect("acme", "")
	if err != nil {
		log.Fatal(err)
	}
	defer conn2.Close()
	res, err := conn2.Query("SELECT msg FROM greetings WHERE id = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0][0].S)
	// Output: hello, virtual cluster
}
